import copy
import random

import pytest
from hypothesis import settings

from sure_omt.discrete import support_to_bound
from sure_omt.spending import make_kernel, make_power_law

# The same examples on every run, and no per-example deadline: the tests run
# on hosts whose speed drifts by a factor of two.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def random_bound(rng: random.Random, max_points: int = 4):
    """A random step CDF with support points scattered over (0, 1]."""
    k = rng.randint(1, max_points)
    pts = sorted({round(rng.uniform(0.002, 0.95), 6) for _ in range(k)} | {1.0})
    return support_to_bound(pts)


def random_stream(rng: random.Random, T: int, max_points: int = 4):
    """(p-values, bounds): each p drawn uniformly from its bound's support."""
    bounds = [random_bound(rng, max_points) for _ in range(T)]
    pvals = [rng.choice(b.support) for b in bounds]
    return pvals, bounds


def corrupted_history(proc, bounds, levels):
    """A copy of ``proc`` whose recorded history has ``levels`` as its alphas,
    each spent as the rule spends it: F from the step's bound if rewarded, else
    in full.  A negative control for the budget audits."""
    bad = copy.copy(proc)
    bad.alphas = list(levels)
    bad.spent = [b(a) for b, a in zip(bounds, levels)] if proc.rewarded else bad.alphas
    return bad


def resummed_base(rule, config, n_eligible, starts):
    """The LORD/ALORD base value of the next step, with ``n_eligible`` eligible
    steps so far and ``starts[j - 1]`` the eligible steps through rejection j:
    every past rejection's gamma re-summed in rejection order, as the scalar
    machine did at every step before it kept per-clock sums (the reference)."""
    lam = rule.lam(config)
    alpha, w0, gamma = config.alpha, config.w0, config.gamma.gamma
    c0 = 1 + n_eligible
    b1 = gamma(c0 - starts[0]) if starts else 0.0
    s = 0.0
    for start in starts[1:]:
        s += gamma(c0 - start)
    val = (1.0 - lam) * (w0 * gamma(c0) + (alpha - w0) * b1 + alpha * s)
    return min(lam, val) if rule.capped else val


def report_rows(report, **keys) -> list[dict]:
    """The rows of an ``EvalReport`` that have every given key and value."""
    return [r for r in report.rows if all(r.get(k) == v for k, v in keys.items())]


def report_value(report, procedure: str, metric: str, **keys) -> float:
    """The estimate of the one row of ``report`` for the procedure, metric and keys."""
    rows = report_rows(report, procedure=procedure, metric=metric, **keys)
    if len(rows) != 1:
        raise KeyError(f"expected one row for {procedure}/{metric}/{keys}, got {len(rows)}")
    return rows[0]["estimate"]


@pytest.fixture
def rng():
    return random.Random(20230823)


@pytest.fixture
def gamma16():
    return make_power_law(1.6)


@pytest.fixture
def kernel10():
    return make_kernel(10)
