"""Exact-test layer: hypergeometric kernel, two-sided Fisher test, support
enumeration and step-CDF null bounds.

The two-sided p-value is the minimum-likelihood convention: sum the
probabilities of all tables (given the margins) whose conditional
probability does not exceed that of the observed table, with a relative
tolerance of 1e-7 for probability ties.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .core import StepCdf

TIE_REL_TOL = 1e-7
# the largest smallest margin (row or column sum) of a table; the test's cost grows with it
MAX_MARGIN = 1 << 20
# fisher_margins keeps at most this many margins, holding at most this many
# feasible tables between them (tens of MB)
_CACHE_MARGINS = 4096
_CACHE_TABLES = 1 << 20


class ContingencyTable2x2(NamedTuple):
    """Cell counts: row 1 = group A success/failure, row 2 = group B.  The
    counts are checked when the table is tested, not when it is built."""

    a: int
    b: int
    c: int
    d: int


class ExactTestResult(NamedTuple):
    p_value: float
    support: tuple[float, ...]
    null_bound: StepCdf


# math.lgamma(i) at index i (index 0, a pole, holds inf), grown on demand by
# doubling up to _LGAMMA_CAP entries; each growth binds a new array, so a
# reader holding the old one still sees a correct prefix
_LGAMMA = np.array([math.inf])
_LGAMMA_CAP = 1 << 20


def _lgamma_range(top: int, n: int):
    """A function (a, b) -> math.lgamma over range(a, b), for any b <= top, for
    a pass that reads four slices of n values each.

    It slices the shared table, grown to cover ``top`` when the growth adds at
    most the 4n values the pass reads; otherwise (a few tables of a large
    group, or a group past the table's cap) it computes each value on the
    spot, so a pass costs what it reads and memory stays bounded.  The values
    are the same either way.
    """
    global _LGAMMA
    table = _LGAMMA
    if top > len(table):
        size = min(max(2 * len(table), top), _LGAMMA_CAP)
        if top > _LGAMMA_CAP or size - len(table) > 4 * n:
            return lambda a, b: np.fromiter(map(math.lgamma, range(a, b)), float, b - a)
        grown = np.fromiter(map(math.lgamma, range(len(table), size)), float, size - len(table))
        table = _LGAMMA = np.concatenate([table, grown])
    return lambda a, b: table[a:b]


def _log_pmf(r1: int, r2: int, c1: int, lo: int, hi: int) -> np.ndarray:
    """log P(first cell = k | margins) for k = lo..hi, with the terms grouped as
    log C(r1, k) + log C(r2, c1 - k) - log C(r1 + r2, c1), each log C(n, k)
    being (lgamma(n + 1) - lgamma(k + 1)) - lgamma(n - k + 1)."""
    lg, seg = math.lgamma, _lgamma_range(max(r1, r2) + 2, hi - lo + 1)
    base = (lg(r1 + r2 + 1) - lg(c1 + 1)) - lg(r1 + r2 - c1 + 1)
    # lgamma at k + 1, r1 - k + 1, c1 - k + 1 and r2 - c1 + k + 1 for k = lo..hi;
    # in place after the first subtraction of each term, operands in the same order
    comb1 = np.subtract(lg(r1 + 1), seg(lo + 1, hi + 2))
    comb1 -= seg(r1 - hi + 1, r1 - lo + 2)[::-1]
    comb2 = np.subtract(lg(r2 + 1), seg(c1 - hi + 1, c1 - lo + 2)[::-1])
    comb2 -= seg(r2 - c1 + lo + 1, r2 - c1 + hi + 2)
    comb1 += comb2
    comb1 -= base
    return comb1


def _check_margins(r1: int, r2: int, c1: int) -> None:
    if min(r1, r2, c1) < 0 or c1 > r1 + r2:
        raise ValueError(f"inconsistent margins {(r1, r2, c1)}")
    if min(r1, r2, c1, r1 + r2 - c1) > MAX_MARGIN:  # before any array is made
        raise ValueError(f"a table's smallest margin must be at most {MAX_MARGIN}")


def _cached_per_margin(compute):
    """``compute(r1, r2, c1)``, cached per margin within _CACHE_MARGINS margins
    and _CACHE_TABLES feasible tables (the length of a result's p-value
    array): the least recently used margins are evicted first, and a margin
    with more tables than that is computed and not kept.  ``__wrapped__`` is
    ``compute``."""
    cache = OrderedDict()  # least recently used first
    held = 0               # the tables of the cached margins

    @functools.wraps(compute)
    def cached(r1: int, r2: int, c1: int):
        nonlocal held
        key = (r1, r2, c1)
        try:
            cache.move_to_end(key)
            return cache[key]
        except KeyError:
            pass
        result = compute(r1, r2, c1)
        n = len(result[0])
        if n <= _CACHE_TABLES:
            held += n
            while held > _CACHE_TABLES or len(cache) >= _CACHE_MARGINS:
                held -= len(cache.popitem(last=False)[1][0])
            cache[key] = result
        return result
    return cached


@_cached_per_margin
def fisher_margins(r1: int, r2: int, c1: int) -> tuple[np.ndarray, int, StepCdf]:
    """p-values and null bound for all feasible first cells given the margins.

    Returns (pvals, lo, bound), cached per margin (``_cached_per_margin``):
    pvals is a read-only float array whose entry k - lo is the two-sided
    p-value when the first cell equals k, and bound jumps at the achievable
    p-values.  Margins with one feasible table (an empty row or column) give
    p = 1 with support (1.0,).

    The pmf is computed in log space with a single exponentiation pass, and
    tail sums are accumulated in ascending pmf order (a stable sort, then a
    sequential cumsum) so that tie handling is deterministic.  Tail pmfs
    that underflow give p = 0.0, which is raised to the smallest positive
    p-value of the margin: the bound keeps F(u) <= u.
    """
    _check_margins(r1, r2, c1)
    lo, hi = max(0, c1 - r2), min(r1, c1)
    n = hi - lo + 1
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    pmf = np.fromiter(map(math.exp, _log_pmf(r1, r2, c1, lo, hi).tolist()), float, n)
    order = pmf.argsort(kind="stable")
    sorted_pmf = pmf[order]
    # tail[j]: the mass of the j + 1 least likely tables, capped at 1; the
    # tail of all of them is 1
    tail = sorted_pmf.cumsum()
    np.minimum(tail, 1.0, out=tail)
    tail[-1] = 1.0
    # p of the table at sorted position i: the tail up to the last j with
    # sorted_pmf[j] <= sorted_pmf[i], up to the tie tolerance; nondecreasing
    sorted_p = tail[sorted_pmf.searchsorted(sorted_pmf * (1.0 + TIE_REL_TOL), side="right") - 1]
    if sorted_p[0] == 0.0:
        sorted_p[sorted_p == 0.0] = sorted_p[sorted_p > 0.0][0]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_p[1:], sorted_p[:-1], out=first[1:])
    pvals = np.empty(n)
    pvals[order] = sorted_p
    pvals.flags.writeable = False  # shared by every caller of the cache
    # increasing, in (0, 1] and ending at tail[-1] = 1.0 by construction
    return pvals, lo, StepCdf._unchecked(tuple(sorted_p[first].tolist()))


def support_to_bound(support) -> StepCdf:
    """Step CDF jumping exactly at the support points (1 appended if absent);
    the points must lie in (0, 1]."""
    vals = sorted(set(float(s) for s in support))
    if not vals or vals[-1] != 1.0:
        vals.append(1.0)
    return StepCdf(support=tuple(vals))


def fisher_two_sided(table: ContingencyTable2x2) -> ExactTestResult:
    """Two-sided Fisher exact test with the achievable p-value support."""
    a, b, c, d = table
    if min(a, b, c, d) < 0:
        raise ValueError("cell counts must be nonnegative")
    pvals, lo, bound = fisher_margins(a + b, c + d, a + c)
    return ExactTestResult(pvals.item(a - lo), bound.support, bound)
