"""Exact-test layer: hypergeometric kernel, two-sided Fisher test, support
enumeration and step-CDF null bounds.

The two-sided p-value is the minimum-likelihood convention: sum the
probabilities of all tables (given the margins) whose conditional
probability does not exceed that of the observed table, with a relative
tolerance of 1e-7 for probability ties.
"""

from __future__ import annotations

import bisect
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


@lru_cache(maxsize=4096)
def fisher_margins(r1: int, r2: int, c1: int) -> tuple[tuple[float, ...], int, StepCdf]:
    """p-values and null bound for all feasible first cells given the margins.

    Returns (pvals, lo, bound), cached per margin: entry pvals[k - lo] is
    the two-sided p-value when the first cell equals k, and bound jumps at
    the achievable p-values.  Margins with one feasible table (an empty row
    or column) give p = 1 with support (1.0,).

    The pmf is computed in log space with a single exponentiation pass, and
    tail sums are accumulated in ascending pmf order so that tie handling is
    deterministic.  Tail pmfs that underflow give p = 0.0, which is raised to
    the smallest positive p-value of the margin: the bound keeps F(u) <= u.
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
        # last index j with sorted_pmf[j] <= pmf[i], up to the tie tolerance
        j = bisect.bisect_right(sorted_pmf, pmf[i] * (1.0 + TIE_REL_TOL)) - 1
        pvals[i] = 1.0 if j == n - 1 else min(cum[j], 1.0)
    if 0.0 in pvals:
        floor = min(p for p in pvals if p > 0.0)
        pvals = [p or floor for p in pvals]
    return tuple(pvals), lo, support_to_bound(pvals)


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
    pvals, lo, bound = fisher_margins(table.a + table.b, table.c + table.d, table.a + table.c)
    return ExactTestResult(pvals[table.a - lo], bound.support, bound)
