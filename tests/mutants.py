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
OBSERVE_DECISION = "Decision(t, p, alpha, reject, rho, base, sure, eps, self.r_count)"
SPENT_INIT = "self.spent: list[float] = [] if self.rewarded else self.alphas"
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
    # observe's positional Decision build
    Mutant("decision-base-sure-swapped", "procedures.py", OBSERVE_DECISION,
           "Decision(t, p, alpha, reject, rho, sure, base, eps, self.r_count)", (FIELDS,)),
    Mutant("decision-p-alpha-swapped", "procedures.py", OBSERVE_DECISION,
           "Decision(t, alpha, p, reject, rho, base, sure, eps, self.r_count)", (FIELDS,)),
    Mutant("decision-rho-base-swapped", "procedures.py", OBSERVE_DECISION,
           "Decision(t, p, alpha, reject, base, rho, sure, eps, self.r_count)", (FIELDS,)),
    # the scalar machine's clocks, carry and base formulas
    Mutant("eligible-steps-not-counted", "procedures.py", "self._n_eligible += 1",
           "self._n_eligible += 0",
           ("tests/test_procedures.py::test_incremental_clocks_match_recomputation",)),
    Mutant("carry-dropped", "procedures.py", "self._eps = 0.0 if eligible else alpha - base",
           "self._eps = 0.0", (FIELDS,)),
    Mutant("bonferroni-without-one-minus-lambda", "procedures.py",
           "return self._alpha * (1.0 - self._lam) * gtab.item(c0)",
           "return self._alpha * gtab.item(c0)",
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
    Mutant("fisher-underflow-not-raised", "discrete.py", "if sorted_p[0] == 0.0:", "if False:",
           ("tests/test_discrete.py::test_underflowed_tails_keep_a_valid_bound",)),
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
    Mutant("fisher-tail-not-one", "discrete.py", "    tail[-1] = 1.0\n", "",
           ("tests/test_discrete.py::"
            "test_fisher_margins_is_bit_identical_to_the_list_reference_small",)),
    Mutant("trial-audits-always-ok", "simulate.py", "return not self.audit_failures",
           "return True",
           ("tests/test_batch.py::test_run_trials_reports_audit_failures_in_trial_order",)),
    Mutant("null-bounds-no-identity", "procedures.py",
           "identity = np.fromiter((b.exact_identity for b in table), bool, n)",
           "identity = np.zeros(n, dtype=bool)",
           ("tests/test_batch.py::test_null_bounds_match_step_cdf",)),
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
