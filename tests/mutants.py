"""The mutation record: edits of ``src/`` that the named tests must catch.

Each mutant replaces one exact text of one file under ``src/sure_omt/`` and
names the tests that must then fail.  Run from anywhere in a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID ...     # the named mutants only

For each mutant the runner copies ``src/`` to a temporary directory, applies
the edit there (and stops with an error unless the old text occurs exactly
once), runs the named tests against the copy with ``-x -q -p no:cacheprovider``
and prints whether the mutant was killed or survived, with the time taken.
The checkout itself is never edited.  A mutant marked equivalent changes no
result, so it is expected to survive.  The exit status is 0 when every other
mutant is killed and every equivalent one survives.

Pytest does not collect this file; ``tests/test_mutants.py`` checks only that
each old text still occurs once, so the record follows refactors of ``src/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/sure_omt"


class Mutant(NamedTuple):
    id: str
    file: str               # under src/sure_omt/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, one of which must fail
    equivalent: bool = False


BATCH_REWARDS = "tests/test_batch.py::test_reward_part_adds_each_window_left_to_right"
FIELDS = "tests/test_procedures.py::test_each_decision_field_holds_its_own_value"
INVESTING_BASE = "tests/test_procedures.py::test_investing_base_matches_the_resummed_loop"
MIXED_PASS = "tests/test_discrete.py::test_one_mixed_pass_is_each_margin_alone_bit_for_bit"
OBSERVE_DECISION = "_new_tuple(Decision, (t, p, alpha, reject, rho, base, sure, eps, self.r_count))"
SPENT_INIT = "self.spent: list[float] = [] if self.rewarded else self.alphas"
# analyze's read-ahead loop, through the check of each row's cells
TABLE_ROWS = """\
    rows = reader if max_rows is None else islice(reader, min(max_rows, sys.maxsize))
    while True:
        ids, firsts, margins, count = [], [], [], 0
        for row in rows:
            if len(row) != 5:
                raise InputError(f"line {reader.line_num}: expected 5 fields, got {len(row)}")
            try:
                cells = int(row[1]), int(row[2]), int(row[3]), int(row[4])
                r1, r2, c1 = margin = table_margins(cells)
            except ValueError as exc:
                raise InputError(f"line {reader.line_num}: {exc}") from None
"""
EXACT_RESULT = "ExactTestResult(pvals.item(table[0] - lo), bound.support, bound)"
SUPPORT_BUILT = 'bound_of(memoryview(points[8 * at:8 * stop]).cast("d"))'
# an equivalent mutant survives every test of the sums it touches
EQUIVALENT_CHECKS = (INVESTING_BASE,
                     "tests/test_procedures.py::test_long_stream_reward_sums_are_exact",
                     "tests/test_golden.py::test_stream_digests")

MUTANTS = (
    # the batch's reward parts kept ahead of the clock
    Mutant("batch-kernel-reciprocal", "procedures.py",
           "np.divide(ahead[i], gp.h, out=sure[a:b])",
           "np.multiply(ahead[i], 1.0 / gp.h, out=sure[a:b])", (BATCH_REWARDS,)),
    Mutant("batch-window-one-short", "procedures.py",
           "span = m if gp.window is None else gp.window",
           "span = m if gp.window is None else gp.window - 1", (BATCH_REWARDS,)),
    Mutant("batch-weights-from-gamma0", "procedures.py",
           "gp.table(span)[1:span + 1, None, None]", "gp.table(span)[0:span, None, None]",
           (BATCH_REWARDS,)),
    # the scalar sums
    Mutant("scalar-kernel-reciprocal", "procedures.py", "return s / self._h",
           "return s * (1.0 / self._h)",
           ("tests/test_procedures.py::test_kernel_sure_part_is_a_left_to_right_sum",)),
    Mutant("clock-sums-rebuild-reversed", "procedures.py",
           "for start, weight in zip(self._starts, self._weights):",
           "for start, weight in zip(self._starts[::-1], self._weights[::-1]):",
           (INVESTING_BASE, "tests/test_procedures.py::test_long_stream_reward_sums_are_exact")),
    # adding 0.0 to a sum that starts at +0.0 changes no bit
    Mutant("clock-sums-add-zero", "procedures.py",
           "        self._sums[k:] += row if weight == 1.0 else row * weight\n",
           "        self._sums[k:] += row if weight == 1.0 else row * weight\n"
           "        self._sums[k:] += 0.0\n",
           EQUIVALENT_CHECKS, equivalent=True),
    # multiplying a row by a weight of 1.0 is exact
    Mutant("clock-sums-rebuild-times-one", "procedures.py",
           "            self._sums += row if weight == 1.0 else row * weight\n",
           "            self._sums += row * weight\n",
           EQUIVALENT_CHECKS, equivalent=True),
    # observe's positional Decision build, which tuple.__new__ does not count
    Mutant("decision-base-sure-swapped", "procedures.py", OBSERVE_DECISION,
           OBSERVE_DECISION.replace("base, sure", "sure, base"), (FIELDS,)),
    Mutant("decision-p-alpha-swapped", "procedures.py", OBSERVE_DECISION,
           OBSERVE_DECISION.replace("p, alpha", "alpha, p"), (FIELDS,)),
    Mutant("decision-rho-base-swapped", "procedures.py", OBSERVE_DECISION,
           OBSERVE_DECISION.replace("rho, base", "base, rho"), (FIELDS,)),
    Mutant("decision-field-dropped", "procedures.py", OBSERVE_DECISION,
           OBSERVE_DECISION.replace(", self.r_count", ""), (FIELDS,)),
    # the scalar machine's clocks, carry and base formulas
    Mutant("eligible-steps-not-counted", "procedures.py", "self._n_eligible += 1",
           "self._n_eligible += 0",
           ("tests/test_procedures.py::test_incremental_clocks_match_recomputation",)),
    Mutant("carry-dropped", "procedures.py", "self._eps = 0.0 if eligible else alpha - base",
           "self._eps = 0.0", (FIELDS,)),
    Mutant("bonferroni-without-one-minus-lambda", "procedures.py",
           "base = self._alpha * (1.0 - self._lam) * gtab.item(c0)",
           "base = self._alpha * gtab.item(c0)",
           ("tests/test_procedures.py::test_aob_clock_freezes_on_small_p",)),
    Mutant("later-rejection-a-clock-late", "procedures.py",
           "self._later.add(self._n_eligible, 1.0)", "self._later.add(self._n_eligible + 1, 1.0)",
           (INVESTING_BASE,)),
    Mutant("first-rejection-also-buffered", "procedures.py", "            elif self._investing:\n",
           "            if self._investing:\n", (INVESTING_BASE,)),
    Mutant("clock-sums-row-from-gamma0", "procedures.py",
           "row = self._tab[1:len(self._sums) - k + 1]", "row = self._tab[0:len(self._sums) - k]",
           (INVESTING_BASE,)),
    # the budget audit
    Mutant("audit-sums-ineligible-steps", "procedures.py", "np.where(flags, spent, 0.0)", "spent",
           ("tests/test_procedures.py::test_corrupted_alphas_fail_audit",
            "tests/test_batch.py::test_batch_matches_online_procedure")),
    Mutant("audit-non-finite-excess-kept", "procedures.py",
           "    excess[~np.isfinite(excess)] = np.inf\n", "",
           ("tests/test_batch.py::test_audits_fail_on_a_non_finite_level",)),
    # the exact tests
    Mutant("fisher-underflow-not-raised", "discrete.py", "if 0.0 in sorted_p[::w].tolist():",
           "if False:",
           ("tests/test_discrete.py::test_underflowed_tails_keep_a_valid_bound",)),
    Mutant("lgamma-table-always-grows", "discrete.py",
           "if size - len(table) <= 4 * n:", "if True:",
           ("tests/test_discrete.py::"
            "test_a_few_tables_of_a_large_group_leave_the_lgamma_table_as_it_was",)),
    # a margin past the lgamma table reads its values one at a time, not clipped ones
    Mutant("uncovered-margins-read-clipped-values", "discrete.py",
           "    if max(tops) > len(table):", "    if False:",
           ("tests/test_discrete.py::"
            "test_a_few_tables_of_a_large_group_leave_the_lgamma_table_as_it_was",
            "tests/test_discrete.py::test_a_covered_and_an_uncovered_margin_share_one_pass")),
    Mutant("exact-tests-bound-ids-without-offset", "simulate.py",
           "return pvals[row, succ_a - lo[row]], row + offset",
           "return pvals[row, succ_a - lo[row]], row",
           ("tests/test_golden.py::test_simulate_digests",)),
    Mutant("exact-tests-one-lo", "simulate.py",
           "return pvals[row, succ_a - lo[row]], row + offset",
           "return pvals[row, succ_a - lo[0]], row + offset",
           ("tests/test_simulate.py::test_exact_tests_match_fisher_table_by_table",)),
    # gamma tables: one division per value keeps the closed form's bits
    Mutant("table-reciprocal-norm", "spending.py",
           "np.fromiter(terms, float, len(ts)) / self.norm",
           "np.fromiter(terms, float, len(ts)) * (1 / self.norm)",
           ("tests/test_spending.py::test_table_holds_the_closed_form_bits",)),
    # one record of each fact
    Mutant("rewarded-spent-is-alphas", "procedures.py", SPENT_INIT,
           "self.spent: list[float] = self.alphas",
           ("tests/test_batch.py::test_a_base_rule_spends_its_alphas_themselves",)),
    Mutant("base-batch-spent-copied", "procedures.py",
           "spent[j - r0] if j >= r0 else a)", "spent[j - r0] if j >= r0 else a.copy())",
           ("tests/test_batch.py::test_a_base_rule_spends_its_alphas_themselves",)),
    Mutant("fisher-tail-not-one", "discrete.py", "    tail[np.arange(B), n - 1] = 1.0\n", "",
           ("tests/test_discrete.py::"
            "test_fisher_margins_is_bit_identical_to_the_list_reference_small",)),
    Mutant("trial-audits-always-ok", "simulate.py", "return not self.audit_failures",
           "return True",
           ("tests/test_batch.py::test_run_trials_reports_audit_failures_in_trial_order",)),
    Mutant("null-bounds-no-identity", "procedures.py",
           "identity = np.fromiter((b.exact_identity for b in table), bool, n)",
           "identity = np.zeros(n, dtype=bool)",
           ("tests/test_batch.py::test_null_bounds_match_step_cdf",)),
    # the exact error rates, enumerated: a bound read low, a level that reads p_t
    Mutant("null-bound-one-point-low", "procedures.py",
           'out = self._vals_before[self._keys.searchsorted(q, "right")]',
           'out = self._vals_before[self._keys.searchsorted(q, "right") - 1]',
           ("tests/test_exact_rates.py::test_exact_error_rates_stay_within_alpha",)),
    Mutant("level-reads-its-own-p-value", "procedures.py",
           "np.cumsum(flags[:, :, :-1], axis=2, out=clock0[:, :, 1:])\n"
           "    clock0[:, :, 1:] += 1\n",
           "np.cumsum(flags, axis=2, out=clock0)\n    clock0 += 1\n",
           ("tests/test_exact_rates.py::test_false_rejections_equal_the_null_mass_spent",)),
    # the exact-test cache keeps its budget
    # one pass over many margins keeps each margin's sums and sort to itself
    Mutant("exact-pass-cumsum-across-margins", "discrete.py",
           "tail = np.add.accumulate(sorted_pmf, axis=1)",
           "tail = np.add.accumulate(sorted_pmf.ravel()).reshape(B, w)",
           (MIXED_PASS,)),
    Mutant("exact-pass-sort-ignores-margins", "discrete.py",
           'order = pmf.argsort(axis=1, kind="stable")',
           'order = pmf.ravel().argsort(kind="stable").reshape(B, w) - np.arange(0, B * w, w)[:, None]',
           (MIXED_PASS,)),
    Mutant("exact-pass-ties-searched-in-the-first-margin-only", "discrete.py",
           "np.logical_or.reduce(ties, axis=1)", "np.logical_or.reduce(ties[:1], axis=1)",
           (MIXED_PASS,)),
    # a margin's padding sorts after its tables
    Mutant("exact-pass-padding-sorts-first", "discrete.py", "pmf = np.full((B, w), np.inf)",
           "pmf = np.full((B, w), 0.0)", (MIXED_PASS,)),
    # the cache checks every margin's integers before it looks one up
    Mutant("margin-cache-door-skips-integer-check", "discrete.py",
           "                _check_integers((r1, r2, c1))\n", "                pass\n",
           ("tests/test_discrete.py::"
            "test_a_count_that_is_not_an_integer_is_rejected_before_the_cache",)),
    Mutant("margin-cache-never-evicts", "discrete.py",
           "held -= len(cache.popitem(last=False)[1][0])", "break",
           ("tests/test_discrete.py::"
            "test_the_cache_keeps_its_tables_within_budget_and_the_recently_used_margins",)),
    # a margin's support: one read-only buffer of float64 points, no Python float per point
    Mutant("exact-pass-support-writable", "discrete.py", SUPPORT_BUILT,
           'bound_of(memoryview(bytearray(points[8 * at:8 * stop])).cast("d"))',
           ("tests/test_discrete.py::test_a_margin_shares_one_read_only_support_buffer",)),
    Mutant("exact-pass-support-from-tolist", "discrete.py", SUPPORT_BUILT,
           "bound_of(tuple(np.frombuffer(points[8 * at:8 * stop]).tolist()))",
           ("tests/test_discrete.py::test_a_cached_table_holds_about_16_bytes",)),
    # fisher_two_sided's ExactTestResult: its fields in order
    Mutant("exact-result-support-bound-swapped", "discrete.py", EXACT_RESULT,
           EXACT_RESULT.replace("bound.support, bound", "bound, bound.support"),
           ("tests/test_discrete.py::test_a_margin_shares_one_read_only_support_buffer",)),
    # the analyze trace quotes an id as csv.writer does; the golden ids need no quotes
    Mutant("trace-id-unquoted", "cli.py", "if _NEEDS_QUOTES(text) is None:", "if True:",
           ("tests/test_cli.py::test_a_trace_line_is_what_csv_writer_writes",
            "tests/test_cli.py::test_analyze_quotes_the_ids_as_csv_writer_does")),
    # a bad row named by its record count, not by the line it ends on
    Mutant("table-rows-named-by-record", "cli.py", TABLE_ROWS,
           TABLE_ROWS.replace("rows = reader", "rows = enumerate(reader")
           .replace("sys.maxsize))", "sys.maxsize)), start=2)")
           .replace("for row in", "for lineno, row in").replace("{reader.line_num}", "{lineno}"),
           ("tests/test_cli.py::test_analyze_names_the_physical_line_of_a_bad_row",)),
    # an h sweep sets kernel bandwidths only
    Mutant("h-sweep-replaces-any-gamma-prime", "simulate.py",
           'if c.gamma_prime is not None and c.gamma_prime.kind != "kernel":', "if False:",
           ("tests/test_cli.py::test_simulate_h_sweep_rejects_a_gamma_prime_that_is_not_a_kernel",)),
    Mutant("oversized-run-not-checked", "simulate.py",
           "if n * m > np.iinfo(np.intp).max:", "if False:",
           ("tests/test_cli.py::test_simulate_too_large_for_one_array_is_an_input_error",)),
    Mutant("me-block-starts-at-zero", "simulate.py",
           '"ME": (max(1, min(m // 2, m - m3 + 1)), m - b2 + 1)',
           '"ME": (min(m // 2, m - m3 + 1), m - b2 + 1)',
           ("tests/test_simulate.py::test_placement_blocks_shift_to_stay_disjoint",)),
    Mutant("sweep-grouped-by-size", "simulate.py",
           "key=lambda point: (id(point.configs), point.scenario.m)",
           "key=lambda point: (len(point.configs), point.scenario.m)",
           ("tests/test_batch.py::test_run_sweep_matches_per_trial_loop",)),
)


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's edit; a ValueError unless its old text occurs once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.id}: old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[bool, float, str]:
    """(killed, seconds, pytest's last line): the mutant's tests against a
    mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / PACKAGE / mutant.file
        path.write_text(mutated(mutant, path.read_text()))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        # where the package is found, without running a mutated line
        probe = "import importlib.util; print(importlib.util.find_spec('sure_omt').origin)"
        where = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                               text=True, check=True).stdout
        if not where.startswith(str(src)):
            raise RuntimeError(f"the tests would import sure_omt from {where.strip()}")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", *mutant.tests, "-x", "-q",
                               "-p", "no:cacheprovider"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode not in (0, 1, 2):  # 2: a collection error, which also kills
        raise RuntimeError(f"{mutant.id}: pytest exited {done.returncode}\n{done.stdout}")
    return done.returncode != 0, seconds, done.stdout.strip().rsplit("\n", 1)[-1]


def main(ids: list[str]) -> int:
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'mutant':36} {'result':9} {'expected':9} {'seconds':>7}  pytest")
    for mutant in MUTANTS:
        if ids and mutant.id not in ids:
            continue
        killed, seconds, last = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        result = "killed" if killed else "survived"
        bad += result != expected
        print(f"{mutant.id:36} {result:9} {expected:9} {seconds:7.1f}  {last}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
