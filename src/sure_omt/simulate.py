"""Two-sample binary experiment generator and Monte-Carlo sweep harness.

Each stream position is a two-group comparison of N binary responses,
summarized as a 2x2 table and tested with the two-sided Fisher exact test.
Null positions use equal success probabilities (a low and a mid level);
alternative positions give one group an elevated probability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .core import StepCdf
from .discrete import fisher_margins
from .evaluate import (EvalReport, TrialOutcome, estimate_fwer, estimate_mfdr,
                       estimate_power)
from .procedures import (FWER_NAMES, ProcedureConfig, audit_fwer_budget,
                         audit_mfdr_budget, make_procedure)
from .spending import make_kernel

PLACEMENTS = ("B", "E", "BM", "BE", "ME", "Random")
# sweep axis -> the ScenarioConfig field it sets; the other axes set lambda and h
SCENARIO_AXES = {"placement": "placement", "pi_a": "pi_a", "N": "n_subjects", "p3": "p3"}
SWEEP_AXES = (*SCENARIO_AXES, "lambda", "h")


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
        for name in ("m", "n_trials", "n_subjects", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 1 or self.n_trials < 1 or self.n_subjects < 0:
            raise ValueError("need m >= 1, n_trials >= 1 and n_subjects >= 0")
        for p in (self.pi_a, self.p3, self.p_null_low, self.p_null_mid):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

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
    b1 = m3 - m3 // 2
    b2 = m3 // 2
    mid = m // 2
    if scheme == "B":
        idx = range(1, m3 + 1)
    elif scheme == "E":
        idx = range(m - m3 + 1, m + 1)
    elif scheme == "BM":
        start2 = max(mid, b1 + 1)
        idx = list(range(1, b1 + 1)) + list(range(start2, start2 + b2))
    elif scheme == "BE":
        idx = list(range(1, b1 + 1)) + list(range(m - b2 + 1, m + 1))
    elif scheme == "ME":
        start1 = min(mid, m - b2 - b1 + 1)
        idx = list(range(start1, start1 + b1)) + list(range(m - b2 + 1, m + 1))
    elif scheme == "Random":
        if rng is None:
            raise ValueError("Random placement needs an rng")
        idx = sorted(int(i) + 1 for i in rng.choice(m, size=m3, replace=False))
    else:
        raise ValueError(f"unknown placement {scheme!r}")
    return tuple(idx)


def generate_trial(config: ScenarioConfig, trial_index: int) -> TrialStream:
    """One simulated stream; deterministic given (seed, trial_index)."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))
    m, n = config.m, config.n_subjects
    h1 = place_signal(m, config.m3, config.placement, rng)
    labels = np.zeros(m, dtype=bool)
    for i in h1:
        labels[i - 1] = True
    # null positions in stream order: the first m1 use the low level
    probs = np.empty(m)
    null_seen = 0
    for i in range(m):
        if labels[i]:
            probs[i] = config.p_null_mid
        else:
            probs[i] = config.p_null_low if null_seen < config.m1 else config.p_null_mid
            null_seen += 1
    probs_a = np.where(labels, config.p3, probs)
    succ_a = rng.binomial(n, probs_a)
    succ_b = rng.binomial(n, probs)
    tables = []
    pvals = []
    bounds = []
    for i in range(m):
        a = int(succ_a[i])
        c = int(succ_b[i])
        tables.append((a, n - a, c, n - c))
        pv, lo, bound = fisher_margins(n, n, a + c)  # at most 2n + 1 margins occur
        pvals.append(pv[a - lo])
        bounds.append(bound)
    return TrialStream(tables=tables, labels=labels, pvals=pvals, bounds=bounds)


def dump_stream_csv(stream: TrialStream, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "a", "b", "c", "d", "label"])
        for i, tab in enumerate(stream.tables):
            writer.writerow([i + 1, *tab, int(stream.labels[i])])


@dataclass
class TrialResults:
    outcomes: dict[str, list[TrialOutcome]]
    audits_ok: bool
    audit_failures: list[tuple[str, int]] = field(default_factory=list)


def run_trials(scenario: ScenarioConfig, configs: dict[str, ProcedureConfig],
               audit: bool = False) -> TrialResults:
    """Run each named procedure over each simulated trial, in fixed trial order."""
    outcomes: dict[str, list[TrialOutcome]] = {name: [] for name in configs}
    failures: list[tuple[str, int]] = []
    for i in range(scenario.n_trials):
        stream = generate_trial(scenario, i)
        for name, config in configs.items():
            proc = make_procedure(name, config)
            step = proc.step
            for p, bound in zip(stream.pvals, stream.bounds):
                step(p, bound)
            outcomes[name].append(TrialOutcome(proc.rejects, stream.labels))
            if audit:
                rep = (audit_fwer_budget(proc) if name in FWER_NAMES
                       else audit_mfdr_budget(proc))
                if not rep.ok:
                    failures.append((name, i))
    return TrialResults(outcomes=outcomes, audits_ok=not failures,
                        audit_failures=failures)


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
            point_configs = {name: replace(c, lam=value) for name, c in configs.items()}
        else:
            kernel = make_kernel(value)
            point_configs = {name: c if c.gamma_prime is None else replace(c, gamma_prime=kernel)
                             for name, c in configs.items()}
        points.append(SweepPoint(point_scenario, point_configs, {"axis": axis, "value": value}))
    return points


def run_sweep(points: Sequence[SweepPoint], audit: bool = False) -> EvalReport:
    """FWER, mFDR and power of each procedure at each point, checked at the stream end."""
    report = EvalReport()
    for point in points:
        results = run_trials(point.scenario, point.configs, audit=audit)
        report.audits_ok = report.audits_ok and results.audits_ok
        T = point.scenario.m
        for name, trials in results.outcomes.items():
            report.add(name, "fwer", estimate_fwer(trials, T), T, **point.keys)
            report.add(name, "mfdr", estimate_mfdr(trials, T), T, **point.keys)
            report.add(name, "power", estimate_power(trials, T), T, **point.keys)
    return report
