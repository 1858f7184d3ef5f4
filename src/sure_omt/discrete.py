"""Exact-test layer: hypergeometric kernel, two-sided Fisher test, support
enumeration and step-CDF null bounds.

The two-sided p-value is the minimum-likelihood convention: sum the
probabilities of all tables (given the margins) whose conditional
probability does not exceed that of the observed table, with a relative
tolerance of 1e-7 for probability ties.

Every exact test runs through one pass over many margins
(``fisher_margins_batch``), bit for bit what each margin gives alone; a
single margin is a pass of one.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .core import StepCdf

TIE_REL_TOL = 1e-7
# the largest smallest margin (row or column sum) of a table; the test's cost grows with it
MAX_MARGIN = 1 << 20
# the largest group (row sum) of a table: up to it every p-value above the
# underflow floor is within 1e-6 relative of its exact tail; the rounding of
# lgamma values near N log N grows with the group N (1e-2 at 2^40, 0.9 at 2^44)
MAX_GROUP = 1 << 24
# fisher_margins keeps at most this many margins, holding at most this many
# feasible tables between them: a margin holds 16 bytes a table at most (its
# p-value and its support point, 8 bytes each) and about 700 bytes of its own,
# so 2^20 tables in 2000 margins of 500 tables hold about 17 MB
_CACHE_MARGINS = 4096
_CACHE_TABLES = 1 << 20
# a pass of the exact test holds margins with at most this many cells in its
# (margins x tables) block, or one margin with more tables than that: its
# temporaries stay under 1 MB
_PASS_CELLS = 4096
# the sign of k in the lgamma arguments k + 1, c1 - k + 1, r1 - k + 1, r2 - c1 + k + 1
_SIGNS = np.array([1, -1, -1, 1])


class ContingencyTable2x2(NamedTuple):
    """Cell counts: row 1 = group A success/failure, row 2 = group B.  The
    counts are checked when the table is tested, not when it is built."""

    a: int
    b: int
    c: int
    d: int


class ExactTestResult(NamedTuple):
    p_value: float
    support: memoryview  # the null bound's points: read-only float64
    null_bound: StepCdf


# math.lgamma(i) at index i (index 0, a pole, holds inf), grown on demand by
# doubling up to _LGAMMA_CAP entries; each growth binds a new array, so a
# reader holding the old one still sees a correct prefix
_LGAMMA = np.array([math.inf])
_LGAMMA_CAP = 1 << 20


def _grown_lgamma(tops: list[int], n: int) -> np.ndarray:
    """The shared lgamma table, for a pass of n feasible tables in all whose
    margins read lgamma below ``tops``, four values per table.

    The table grows to cover the largest top it can within its cap, such that
    the growth adds at most the 4n values the pass reads; the margins it does
    not cover (a few tables of a large group, or a group past the cap) compute
    their values one at a time, so a pass costs what it reads and memory stays
    bounded.  The values are the same either way.
    """
    global _LGAMMA
    table = _LGAMMA
    for top in sorted({t for t in tops if len(table) < t <= _LGAMMA_CAP}, reverse=True):
        size = min(max(2 * len(table), top), _LGAMMA_CAP)
        if size - len(table) <= 4 * n:
            grown = np.fromiter(map(math.lgamma, range(len(table), size)), float,
                                size - len(table))
            table = _LGAMMA = np.concatenate([table, grown])
            break
    return table


# a margin has smallest + 1 feasible tables; checked before any array is made
_TOO_LARGE = f"a table's smallest margin must be at most {MAX_MARGIN}"
_TOO_LARGE_GROUP = "a table's groups (row sums) must be at most 2**24"


def _check_integers(counts) -> None:
    """ValueError unless every count is an integer: a Python int or bool, or a
    numpy integer.  A float is not, even a whole one, nor is a str."""
    for n in counts:
        if type(n) is not int:
            try:
                operator.index(n)
            except TypeError:
                raise ValueError(f"counts must be integers, got {n!r}") from None


def _check_margins(r1: int, r2: int, c1: int) -> None:
    if min(r1, r2, c1) < 0 or c1 > r1 + r2:
        raise ValueError(f"inconsistent margins {(r1, r2, c1)}")
    if min(r1, r2, c1, r1 + r2 - c1) > MAX_MARGIN:
        raise ValueError(_TOO_LARGE)
    if r1 > MAX_GROUP or r2 > MAX_GROUP:
        raise ValueError(_TOO_LARGE_GROUP)


def table_margins(cells: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """The margins (r1, r2, c1) of a table's cells (a, b, c, d), such as a
    ContingencyTable2x2: its row sums and first column sum.  A negative cell,
    margins the exact test cannot take or a count that is not an integer
    (``_check_integers``) raise ValueError."""
    a, b, c, d = cells
    if not type(a) is type(b) is type(c) is type(d) is int:
        _check_integers(cells)
    if min(a, b, c, d) < 0:
        raise ValueError("cell counts must be nonnegative")
    r1, r2 = a + b, c + d
    if min(r1, r2, a + c, b + d) > MAX_MARGIN:
        raise ValueError(_TOO_LARGE)
    if r1 > MAX_GROUP or r2 > MAX_GROUP:
        raise ValueError(_TOO_LARGE_GROUP)
    return r1, r2, a + c


def _cached_per_margin(compute):
    """``compute(margins)`` for a list of margins, cached per margin within
    _CACHE_MARGINS margins and _CACHE_TABLES feasible tables (the length of a
    result's p-value array): it computes each distinct margin not cached once,
    in one call; the least recently used margins are evicted first, and a
    margin with more tables than that is computed and not kept.  Every count
    of every margin must be an integer (``_check_integers``) before anything
    is looked up, so a whole float never finds an int's result.
    ``__wrapped__`` is ``compute``."""
    cache = OrderedDict()  # least recently used first
    held = 0               # the tables of the cached margins

    @functools.wraps(compute)
    def cached(margins):
        nonlocal held
        for r1, r2, c1 in margins:
            if not type(r1) is type(r2) is type(c1) is int:
                _check_integers((r1, r2, c1))
        results = list(map(cache.get, margins))
        if None not in results:
            for key in margins:
                cache.move_to_end(key)
            return results
        missing = {}  # each margin not cached, with its places in results
        for i, (key, result) in enumerate(zip(margins, results)):
            if result is None:
                missing.setdefault(key, []).append(i)
            else:
                cache.move_to_end(key)
        for key, result in zip(missing, compute(list(missing))):
            for i in missing[key]:
                results[i] = result
            n = len(result[0])
            if n <= _CACHE_TABLES:
                held += n
                while held > _CACHE_TABLES or len(cache) >= _CACHE_MARGINS:
                    held -= len(cache.popitem(last=False)[1][0])
                cache[key] = result
        return results

    return cached


@_cached_per_margin
def fisher_margins_batch(margins: list[tuple[int, int, int]]) -> list[
        tuple[np.ndarray, int, StepCdf]]:
    """``fisher_margins`` of each margin (r1, r2, c1), cached per margin
    (``_cached_per_margin``).

    The margins not cached are tested together, in passes: a pass holds
    margins with about as many feasible tables each, in a block of at most
    _PASS_CELLS cells (or one margin with more tables than that), and does
    every floating-point operation of a margin tested alone, in the same order.
    """
    los, ns, tops = [], [], []
    for r1, r2, c1 in margins:
        _check_margins(r1, r2, c1)
        lo = max(0, c1 - r2)
        los.append(lo)
        ns.append(min(r1, c1) - lo + 1)
        tops.append(max(r1, r2) + 2)
    table = _grown_lgamma(tops, sum(ns))
    order = sorted(range(len(margins)), key=ns.__getitem__)
    results = [None] * len(margins)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop - start + 1) * ns[order[stop]] <= _PASS_CELLS:
            stop += 1
        ids = order[start:stop]
        done = _exact_pass([margins[i] for i in ids], [los[i] for i in ids],
                           [ns[i] for i in ids], [tops[i] for i in ids], table)
        for i, result in zip(ids, done):
            results[i] = result
        start = stop
    return results


def _exact_pass(margins, los, ns, tops, table):
    """The exact tests of B margins with ns feasible tables (ascending) as one
    block of B rows and w = ns[-1] columns: row i holds the tables k = lo_i +
    j of margin i in its first ns[i] columns, and padding after them.

    The lgamma values are read from the shared ``table``; a margin whose
    values reach past it (its top, max(r1, r2) + 2, is past the table's end)
    computes them one at a time.  The log-pmf of a table is grouped as
    log C(r1, k) + log C(r2, c1 - k) - log C(r1 + r2, c1), each log C(n, k)
    being (lgamma(n + 1) - lgamma(k + 1)) - lgamma(n - k + 1).
    """
    B, w = len(ns), ns[-1]
    n = np.array(ns)
    valid = np.arange(w) < n[:, None]
    # lgamma at k + 1, c1 - k + 1, r1 - k + 1 and r2 - c1 + k + 1 for k = lo:
    # at k = lo + j, each moves by its sign in _SIGNS times j
    firsts = [(lo + 1, c1 + 1 - lo, r1 + 1 - lo, r2 - c1 + 1 + lo)
              for (r1, r2, c1), lo in zip(margins, los)]
    # a (B, 4, w) block; clipped, the padding reads inf at index 0 or a
    # finite value, so its log-pmf is -inf or finite, never nan
    lg = table.take(np.array(firsts)[:, :, None] + _SIGNS[:, None] * np.arange(w), mode="clip")
    if max(tops) > len(table):  # the margins past the table compute their tables' values
        for i in [i for i, top in enumerate(tops) if top > len(table)]:
            m = ns[i]
            for out, a, sign in zip(lg[i], firsts[i], _SIGNS.tolist()):
                out[:m] = np.fromiter(map(math.lgamma, range(a, a + sign * m, sign)), float, m)
    # lgamma(r1 + 1), lgamma(r2 + 1) and log C(r1 + r2, c1) of each margin
    f = math.lgamma
    heads = np.array([(f(r1 + 1), f(r2 + 1), (f(r1 + r2 + 1) - f(c1 + 1)) - f(r1 + r2 - c1 + 1))
                      for r1, r2, c1 in margins])
    # log C(r1, k) and log C(r2, c1 - k) side by side, operands in the same order
    combs = np.subtract(heads[:, :2, None], lg[:, :2])
    combs -= lg[:, 2:]
    logs = np.add(combs[:, 0], combs[:, 1])
    logs -= heads[:, 2:]
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    pmf = np.full((B, w), np.inf)  # the padding sorts last in its row
    pmf[valid] = np.fromiter(map(math.exp, logs[valid].tolist()), float, sum(ns))
    # each margin's stable argsort, as indices into the block
    order = pmf.argsort(axis=1, kind="stable")
    order += np.arange(0, B * w, w)[:, None]
    sorted_pmf = pmf.take(order)
    # tail[i, j]: the mass of the j + 1 least likely tables of margin i, summed
    # left to right and capped at 1; the tail of all of them is 1
    tail = np.add.accumulate(sorted_pmf, axis=1)
    np.minimum(tail, 1.0, out=tail)
    tail[np.arange(B), n - 1] = 1.0
    # p of the table at a sorted position: the tail up to the last position of
    # its margin with a pmf at most its own, up to the tie tolerance; that is
    # its own position unless the next one ties it, so a margin with ties
    # searches its whole row (its padding, all inf, lies past every bound) and
    # no other margin does; nondecreasing in each margin
    bound = sorted_pmf * (1.0 + TIE_REL_TOL)
    ties = sorted_pmf[:, 1:] <= bound[:, :-1]
    ties &= valid[:, 1:]  # the padding, all inf, ties itself
    if np.count_nonzero(ties):  # rare outside symmetric margins
        for i in np.logical_or.reduce(ties, axis=1).nonzero()[0].tolist():
            # a bound is at least the row's first pmf, so a search of the
            # rest of the row lands on the last position at most the bound
            row = tail[i]
            row[:] = row[sorted_pmf[i, 1:].searchsorted(bound[i], side="right")]
    sorted_p = tail.ravel()
    if 0.0 in sorted_p[::w].tolist():
        zero = tail == 0.0
        sorted_p = np.where(zero, tail[np.arange(B), zero.sum(axis=1), None], tail).ravel()
    # each margin's support, one after the other: increasing, in (0, 1] and
    # ending at its one point 1.0, the tail of all its tables; its padding,
    # whose tail is capped at 1.0 too, starts no point
    first = np.empty(B * w, dtype=bool)
    np.not_equal(sorted_p[1:], sorted_p[:-1], out=first[1:])
    first[::w] = True
    points = sorted_p[first]
    stops = ((points == 1.0).nonzero()[0] + 1).tolist()
    points = points.tobytes()
    pvals = np.empty(B * w)
    pvals[order.ravel()] = sorted_p
    results, at, bound_of = [], 0, StepCdf._unchecked
    for start, lo, m, stop in zip(range(0, B * w, w), los, ns, stops):
        # a row of a block, and its support, are copied: a view would hold the
        # block the cache does not count; both are shared by every caller of
        # the cache, so neither can be written (the support is bytes)
        own = pvals[start:start + m].copy()
        own.setflags(write=False)
        results.append((own, lo, bound_of(memoryview(points[8 * at:8 * stop]).cast("d"))))
        at = stop
    return results


def fisher_margins(r1: int, r2: int, c1: int) -> tuple[np.ndarray, int, StepCdf]:
    """p-values and null bound for all feasible first cells given the margins.

    Returns (pvals, lo, bound): ``fisher_margins_batch`` of the one margin, a
    lookup in a batch of one when it is cached and a pass of one when not,
    with that call's checks.  pvals is a read-only float array whose entry
    k - lo is the two-sided p-value when the first cell equals k, and bound
    jumps at the achievable p-values.  Margins with one feasible table (an
    empty row or column) give p = 1 with support [1.0].

    The pmf is computed in log space with a single exponentiation pass, and
    tail sums are accumulated in ascending pmf order (a stable sort, then a
    sequential cumsum) so that tie handling is deterministic.  Tail pmfs
    that underflow give p = 0.0, which is raised to the smallest positive
    p-value of the margin: the bound keeps F(u) <= u.
    """
    return fisher_margins_batch([(r1, r2, c1)])[0]


def support_to_bound(support) -> StepCdf:
    """Step CDF jumping exactly at the support points (1 appended if absent);
    the points must lie in (0, 1]."""
    vals = sorted(set(map(float, support)))
    if not vals or vals[-1] != 1.0:
        vals.append(1.0)
    return StepCdf(support=vals)


def fisher_two_sided(table: ContingencyTable2x2) -> ExactTestResult:
    """Two-sided Fisher exact test with the achievable p-value support: the
    null bound's read-only points, shared by every table of its margins.

    The table's margins (``table_margins``, which raises ValueError for cells
    the test cannot take, cached or not) tested by ``fisher_margins``."""
    pvals, lo, bound = fisher_margins(*table_margins(table))
    return ExactTestResult(pvals.item(table[0] - lo), bound.support, bound)
