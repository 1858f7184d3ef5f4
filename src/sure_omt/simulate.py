"""Two-sample binary experiment generator and Monte-Carlo sweep harness.

Each stream position is a two-group comparison of N binary responses,
summarized as a 2x2 table and tested with the two-sided Fisher exact test.
Null positions use equal success probabilities (a low and a mid level);
alternative positions give one group an elevated probability.

The sweep runs the trials of the points that share their procedures a chunk
at a time: each chunk is drawn, tested, run as one batch of all procedures
(``procedures.run_batch``) and audited, and only its reject flags, labels and
audit verdicts are kept, so memory stays flat in the number of trials.  Each
trial keeps its own seeded draws, so the results do not depend on the chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .core import StepCdf
from .discrete import MAX_MARGIN, fisher_margins
from .evaluate import (EvalReport, TrialOutcome, estimate_fwer, estimate_mfdr,
                       estimate_power)
from .procedures import NullBounds, ProcedureConfig, run_batch
from .spending import json_number, make_kernel

PLACEMENTS = ("B", "E", "BM", "BE", "ME", "Random")
# sweep axis -> the ScenarioConfig field it sets; the other axes set lambda and h
SCENARIO_AXES = {"placement": "placement", "pi_a": "pi_a", "N": "n_subjects", "p3": "p3"}
SWEEP_AXES = (*SCENARIO_AXES, "lambda", "h")
# the range of each numeric field; a field with integer bounds takes integers only
RANGES = {"m": (1, np.iinfo(np.intp).max), "n_trials": (1, np.iinfo(np.intp).max),
          "n_subjects": (0, MAX_MARGIN), "seed": (0, float("inf")), "pi_a": (0.0, 1.0),
          "p3": (0.0, 1.0), "p_null_low": (0.0, 1.0), "p_null_mid": (0.0, 1.0)}
# The most columns (procedures x trials) one run_batch call steps: it caps a
# chunk's working set, which grows with its columns times the stream length.
# Picked from a sweep of 32-4096 columns (README "Performance").
BATCH_COLUMNS = 1024


@dataclass(frozen=True)
class ScenarioConfig:
    m: int = 500
    pi_a: float = 0.3
    n_subjects: int = 25
    p3: float = 0.4
    p_null_low: float = 0.01
    p_null_mid: float = 0.10
    placement: str = "Random"
    seed: int = 0
    n_trials: int = 1000

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        for name, (lo, hi) in RANGES.items():
            value = json_number(getattr(self, name), name)
            if type(lo) is int and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")

    @property
    def m3(self) -> int:
        return round(self.pi_a * self.m)

    @property
    def m2(self) -> int:
        return (self.m - self.m3) // 2

    @property
    def m1(self) -> int:
        # the odd remainder of the null split goes to the low-probability group
        return self.m - self.m3 - self.m2


@dataclass
class TrialStream:
    tables: list[tuple[int, int, int, int]]
    labels: np.ndarray
    pvals: list[float]
    bounds: list[StepCdf]


def place_signal(m: int, m3: int, scheme: str, rng: np.random.Generator | None = None):
    """1-based alternative positions for a placement scheme.

    Two-block schemes put ceil(m3/2) at the first named anchor and the rest
    at the second (anchors: stream start, floor(m/2), stream end), shifting
    blocks just enough to keep them disjoint within the stream.
    """
    if m3 > m:
        raise ValueError("m3 must not exceed m")
    if m3 == 0:
        return tuple()
    if scheme == "Random":
        if rng is None:
            raise ValueError("Random placement needs an rng")
        return tuple((np.sort(rng.choice(m, size=m3, replace=False)) + 1).tolist())
    b1, b2 = m3 - m3 // 2, m3 // 2
    # the starts of the first and the second block
    starts = {"B": (1, 1 + b1), "E": (m - m3 + 1, m - b2 + 1), "BM": (1, max(m // 2, b1 + 1)),
              "BE": (1, m - b2 + 1), "ME": (min(m // 2, m - m3 + 1), m - b2 + 1)}
    if scheme not in starts:
        raise ValueError(f"unknown placement {scheme!r}")
    first, second = starts[scheme]
    return (*range(first, first + b1), *range(second, second + b2))


def _draw(config: ScenarioConfig, trial_index: int):
    """The seeded draws of one trial: labels and both groups' success counts."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))
    m, n = config.m, config.n_subjects
    h1 = place_signal(m, config.m3, config.placement, rng)
    labels = np.zeros(m, dtype=bool)
    labels[np.array(h1, dtype=np.intp) - 1] = True
    # null positions in stream order: the first m1 use the low level
    low = ~labels & (np.cumsum(~labels) <= config.m1)
    probs = np.where(low, config.p_null_low, config.p_null_mid)
    probs_a = np.where(labels, config.p3, probs)
    succ_a = rng.binomial(n, probs_a)
    succ_b = rng.binomial(n, probs)
    return labels, succ_a, succ_b


def _exact_tests(n: int, succ_a: np.ndarray, succ_b: np.ndarray, table: list[StepCdf]):
    """The p-value and null-bound index of each N-vs-N table (a, n - a, c, n - c).

    One ``fisher_margins`` lookup per distinct margin c1 = a + c: row i of the
    p-value table holds margin i's p-value of first cell lo_i + j in column j.
    The margins' bounds are appended to ``table``; the index of each table's
    bound points into it.  Draws of any shape give arrays of that shape.
    """
    c1 = succ_a + succ_b
    row_of = np.zeros(2 * n + 1, dtype=np.intp)  # by c1: at most 2n + 1 margins occur
    row_of[c1] = 1  # marks the margins that occur, then holds their row
    present = row_of.nonzero()[0]
    row_of[present] = np.arange(len(present))
    margins = [fisher_margins(n, n, c) for c in present.tolist()]
    pvals = np.zeros((len(margins), max(len(pv) for pv, _, _ in margins)))
    for i, (pv, _, _) in enumerate(margins):
        pvals[i, :len(pv)] = pv
    lo = np.array([first for _, first, _ in margins], dtype=np.intp)
    row = row_of[c1]
    offset = len(table)
    table.extend(bound for _, _, bound in margins)
    return pvals[row, succ_a - lo[row]], row + offset


def generate_trial(config: ScenarioConfig, trial_index: int) -> TrialStream:
    """One simulated stream; deterministic given (seed, trial_index)."""
    labels, succ_a, succ_b = _draw(config, trial_index)
    n = config.n_subjects
    table: list[StepCdf] = []
    pvals, ids = _exact_tests(n, succ_a, succ_b, table)
    a, c = succ_a.tolist(), succ_b.tolist()
    return TrialStream(tables=[(x, n - x, y, n - y) for x, y in zip(a, c)], labels=labels,
                       pvals=pvals.tolist(), bounds=[table[i] for i in ids.tolist()])


@dataclass
class TrialResults:
    """Each procedure's trial outcomes and the (procedure, trial) audit failures."""

    outcomes: dict[str, TrialOutcome]  # one row per trial
    audit_failures: list[tuple[str, int]]

    @property
    def audits_ok(self) -> bool:
        return not self.audit_failures


def _run_stacked(scenarios: Sequence[ScenarioConfig],
                 configs: dict[str, ProcedureConfig]) -> list[TrialResults]:
    """Every trial of every scenario (all of one stream length), in chunks of at
    most ``BATCH_COLUMNS // len(configs)`` trials; a chunk may span scenarios.

    Each chunk is drawn, gets one exact-test table per run of one scenario and
    one ``NullBounds``, runs as one batch and is audited; only its reject
    flags, labels and audit verdicts outlive it.
    """
    trials = [(scenario, i) for scenario in scenarios for i in range(scenario.n_trials)]
    labels = np.empty((len(trials), scenarios[0].m), dtype=bool)
    rejects = {name: np.empty(labels.shape, dtype=bool) for name in configs}
    passed: dict[str, list[bool]] = {name: [] for name in configs}
    size = max(1, BATCH_COLUMNS // max(1, len(configs)))
    for lo in range(0, len(trials), size):
        rows = slice(lo, lo + size)
        table: list[StepCdf] = []
        chunk_labels, tests = [], []
        for scenario, run in groupby(trials[rows], key=itemgetter(0)):
            run_labels, succ_a, succ_b = map(np.array, zip(
                *(_draw(scenario, i) for _, i in run)))
            chunk_labels.append(run_labels)
            tests.append(_exact_tests(scenario.n_subjects, succ_a, succ_b, table))
        labels[rows] = np.concatenate(chunk_labels)
        pvals, ids = (np.concatenate(arrays) for arrays in zip(*tests))
        for name, run in run_batch(configs, pvals, NullBounds(table, ids)).items():
            rejects[name][rows] = run.rejects
            passed[name].extend(rep.ok for rep in run.audit())
    results = []
    start = 0
    for scenario in scenarios:
        rows = slice(start, start + scenario.n_trials)
        outcomes = {name: TrialOutcome(rej[rows], labels[rows]) for name, rej in rejects.items()}
        # trial by trial, in procedure order
        failures = [(name, i) for i in range(scenario.n_trials) for name in configs
                    if not passed[name][start + i]]
        results.append(TrialResults(outcomes=outcomes, audit_failures=failures))
        start = rows.stop
    return results


def run_trials(scenario: ScenarioConfig, configs: dict[str, ProcedureConfig]) -> TrialResults:
    """Run and audit each named procedure over each simulated trial, in fixed trial order."""
    [results] = _run_stacked([scenario], configs)
    return results


class SweepPoint(NamedTuple):
    """One grid point: the scenario, the procedures and the report keys."""

    scenario: ScenarioConfig
    configs: dict[str, ProcedureConfig]
    keys: dict  # axis and value; none without a sweep


def sweep_points(scenario: ScenarioConfig, configs: dict[str, ProcedureConfig],
                 axis: str | None = None, values: Sequence | None = None) -> list[SweepPoint]:
    """The grid points of a one-axis sweep, or the single point without one.

    Every point is built, and so validated, before any trial runs.  A lambda
    point applies to every procedure; an h point replaces the kernel gamma'
    of the procedures that have one.
    """
    if axis is None and values is None:
        return [SweepPoint(scenario, configs, {})]
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("a sweep needs a nonempty list of values")
    points = []
    for value in values:
        point_scenario, point_configs = scenario, configs
        if axis in SCENARIO_AXES:
            point_scenario = replace(scenario, **{SCENARIO_AXES[axis]: value})
        elif axis == "lambda":
            lam = json_number(value, "lambda")
            point_configs = {name: replace(c, lam=lam) for name, c in configs.items()}
        else:
            kernel = make_kernel(value)
            point_configs = {name: c if c.gamma_prime is None else replace(c, gamma_prime=kernel)
                             for name, c in configs.items()}
        points.append(SweepPoint(point_scenario, point_configs, {"axis": axis, "value": value}))
    return points


def run_sweep(points: Sequence[SweepPoint]) -> EvalReport:
    """FWER, mFDR and power of each procedure at each point, checked at the stream
    end, and whether every trial passed its budget audit.

    Consecutive points that share their procedure configs object (the points
    of a scenario axis) and stream length run as one batch.
    """
    report = EvalReport()
    for _, run in groupby(points, key=lambda point: (id(point.configs), point.scenario.m)):
        group = list(run)
        stacked = _run_stacked([point.scenario for point in group], group[0].configs)
        for point, results in zip(group, stacked):
            report.audits_ok = report.audits_ok and results.audits_ok
            T = point.scenario.m
            for name, block in results.outcomes.items():
                report.add(name, "fwer", estimate_fwer([block], T), T, **point.keys)
                report.add(name, "mfdr", estimate_mfdr([block], T), T, **point.keys)
                report.add(name, "power", estimate_power([block], T), T, **point.keys)
    return report
