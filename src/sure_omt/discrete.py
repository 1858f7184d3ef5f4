"""Exact-test layer: hypergeometric kernel, two-sided Fisher test, support
enumeration and step-CDF null bounds.

The two-sided p-value is the minimum-likelihood convention: sum the
probabilities of all tables (given the margins) whose conditional
probability does not exceed that of the observed table, with a relative
tolerance of 1e-7 for probability ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import StepCdf

TIE_REL_TOL = 1e-7


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Cell counts: row 1 = group A success/failure, row 2 = group B."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("cell counts must be nonnegative")


@dataclass(frozen=True)
class ExactTestResult:
    p_value: float
    support: tuple[float, ...]
    null_bound: StepCdf


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pmf(k: int, margins: tuple[int, int, int]) -> float:
    """P(first cell = k) conditionally on the margins (row1, row2, col1)."""
    r1, r2, c1 = margins
    if min(r1, r2, c1) < 0 or c1 > r1 + r2:
        raise ValueError(f"inconsistent margins {margins}")
    lo, hi = max(0, c1 - r2), min(r1, c1)
    if not lo <= k <= hi:
        raise ValueError(f"cell value {k} outside feasible range [{lo}, {hi}]")
    return math.exp(_log_comb(r1, k) + _log_comb(r2, c1 - k) - _log_comb(r1 + r2, c1))


@lru_cache(maxsize=None)
def fisher_margins(r1: int, r2: int, c1: int) -> tuple[tuple[float, ...], int, tuple[float, ...]]:
    """p-values and support for all feasible first cells given the margins.

    Returns (pvals, lo, support), cached per margin: entry pvals[k - lo] is
    the two-sided p-value when the first cell equals k.

    The pmf is computed in log space with a single exponentiation pass, and
    tail sums are accumulated in ascending pmf order so that tie handling is
    deterministic.
    """
    lo, hi = max(0, c1 - r2), min(r1, c1)
    base = _log_comb(r1 + r2, c1)
    logs = [_log_comb(r1, k) + _log_comb(r2, c1 - k) - base for k in range(lo, hi + 1)]
    pmf = [math.exp(v) for v in logs]
    order = sorted(range(len(pmf)), key=lambda i: pmf[i])
    cum = []
    acc = 0.0
    for i in order:
        acc += pmf[i]
        cum.append(acc)
    sorted_pmf = [pmf[i] for i in order]
    n = len(pmf)
    pvals = [0.0] * n
    for i in range(n):
        cut = pmf[i] * (1.0 + TIE_REL_TOL)
        # last index with sorted_pmf[j] <= cut
        j = n - 1
        while sorted_pmf[j] > cut:
            j -= 1
        p = cum[j]
        pvals[i] = 1.0 if j == n - 1 else min(p, 1.0)
    support = sorted(set(pvals))
    if support[-1] != 1.0:
        support.append(1.0)
    return tuple(pvals), lo, tuple(support)


def support_to_bound(support) -> StepCdf:
    """Step CDF jumping exactly at the support points (1 appended if absent)."""
    vals = sorted(set(float(s) for s in support))
    if any(not 0.0 < s <= 1.0 for s in vals):
        raise ValueError("support values must lie in (0, 1]")
    if not vals:
        vals = [1.0]
    if vals[-1] != 1.0:
        vals.append(1.0)
    return StepCdf(support=tuple(vals))


def fisher_two_sided(table: ContingencyTable2x2) -> ExactTestResult:
    """Two-sided Fisher exact test with the achievable p-value support."""
    r1, r2 = table.a + table.b, table.c + table.d
    c1 = table.a + table.c
    if r1 + r2 == 0 or c1 == 0 or c1 == r1 + r2 or r1 == 0 or r2 == 0:
        # degenerate margins: a single feasible table, no evidence either way
        return ExactTestResult(1.0, (1.0,), support_to_bound((1.0,)))
    pvals, lo, support = fisher_margins(r1, r2, c1)
    return ExactTestResult(pvals[table.a - lo], support, support_to_bound(support))

