import bisect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from sure_omt import discrete
from sure_omt.core import StepCdf
from sure_omt.discrete import (ContingencyTable2x2, ExactTestResult, TIE_REL_TOL,
                               fisher_margins, fisher_margins_batch, fisher_two_sided,
                               support_to_bound)

from oracles import hypergeom_pmf


def test_hypergeom_pmf_hand_values():
    # margins (3, 3, 3): pmf over k=0..3 is (1/20, 9/20, 9/20, 1/20)
    assert hypergeom_pmf(0, (3, 3, 3)) == pytest.approx(1 / 20, rel=1e-12)
    assert hypergeom_pmf(1, (3, 3, 3)) == pytest.approx(9 / 20, rel=1e-12)
    assert hypergeom_pmf(2, (3, 3, 3)) == pytest.approx(9 / 20, rel=1e-12)
    assert hypergeom_pmf(3, (3, 3, 3)) == pytest.approx(1 / 20, rel=1e-12)
    with pytest.raises(ValueError):
        hypergeom_pmf(4, (3, 3, 3))
    with pytest.raises(ValueError):
        hypergeom_pmf(0, (3, 3, 9))


def test_fisher_hand_examples():
    # perfectly separated 3-vs-3: two extreme tables each with pmf 1/20
    r = fisher_two_sided(ContingencyTable2x2(3, 0, 0, 3))
    assert r.p_value == pytest.approx(0.1, rel=1e-12)
    assert len(r.support) == 2
    assert r.support[0] == pytest.approx(0.1, rel=1e-12)
    assert r.support[-1] == 1.0
    # balanced 1-vs-1: the observed table is the most likely one
    r = fisher_two_sided(ContingencyTable2x2(1, 1, 1, 1))
    assert r.p_value == 1.0
    assert r.support[0] == pytest.approx(1 / 3, rel=1e-12)


def test_fisher_degenerate_margins():
    # an empty row or column leaves one feasible table
    for tab in [(0, 0, 0, 0), (2, 0, 3, 0), (0, 2, 0, 3), (0, 0, 1, 2), (3, 1, 0, 0)]:
        r = fisher_two_sided(ContingencyTable2x2(*tab))
        assert r.p_value == 1.0
        assert r.support.tolist() == [1.0]
        a, b, c, d = tab
        assert fisher_margins(a + b, c + d, a + c)[0].tolist() == [1.0]


def test_negative_cells_rejected():
    with pytest.raises(ValueError, match="cell counts must be nonnegative"):
        fisher_two_sided(ContingencyTable2x2(1, -1, 0, 2))


@lru_cache(maxsize=None)
def _rational_two_sided(r1, r2, c1):
    """Exact-rational brute-force oracle for the minimum-likelihood p-value."""
    lo, hi = max(0, c1 - r2), min(r1, c1)
    denom = math.comb(r1 + r2, c1)
    pmf = {k: Fraction(math.comb(r1, k) * math.comb(r2, c1 - k), denom)
           for k in range(lo, hi + 1)}
    out = {}
    for k in range(lo, hi + 1):
        out[k] = sum(p for p in pmf.values() if p <= pmf[k])
    return out, lo


def test_fisher_matches_rational_oracle_small_margins():
    for r1 in range(13):
        for r2 in range(13):
            if r1 == 0 or r2 == 0:
                continue
            for c1 in range(1, r1 + r2):
                pvals, lo, _ = fisher_margins(r1, r2, c1)
                oracle, olo = _rational_two_sided(r1, r2, c1)
                assert lo == olo
                for k, want in oracle.items():
                    assert abs(pvals[k - lo] - float(want)) <= 1e-10, (r1, r2, c1, k)


def test_tie_tolerance_only_captures_exact_ties():
    # margins (3, 3, 3): k=1 and k=2 have identical pmf; both tails merge
    pvals, lo, _ = fisher_margins(3, 3, 3)
    assert pvals[1 - lo] == pvals[2 - lo] == 1.0
    assert pvals[0 - lo] == pytest.approx(0.1, rel=1e-12)


def test_support_is_achievable_p_values():
    pvals, lo, bound = fisher_margins(8, 7, 5)
    support = bound.support
    assert set(support) >= set(pvals)
    assert support.tolist() == sorted(set(pvals) | {1.0})
    assert support[-1] == 1.0


def test_support_to_bound():
    f = support_to_bound((0.3, 0.1))
    assert f.support.tolist() == [0.1, 0.3, 1.0]
    assert f(0.2) == 0.1
    for bad in [(0.0, 1.0), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            support_to_bound(bad)
    assert support_to_bound(()).support.tolist() == [1.0]


def test_null_bound_validity_monte_carlo():
    """Under the conditional null, P(p <= u) must not exceed the step bound."""
    rng = np.random.default_rng(12345)
    n_draws = 20_000
    configs = [(10, 10, 6), (25, 25, 10), (12, 8, 9), (25, 25, 40), (15, 5, 3)]
    for r1, r2, c1 in configs:
        pvals, lo, bound = fisher_margins(r1, r2, c1)
        draws = rng.hypergeometric(r1, r2, c1, size=n_draws)
        sampled = np.array([pvals[k - lo] for k in draws])
        for u in bound.support:
            emp = float(np.mean(sampled <= u * (1 + 1e-12)))
            se = math.sqrt(max(emp * (1 - emp), 1e-9) / n_draws)
            assert emp <= bound(u) + 3 * se, (r1, r2, c1, u)


def test_exactness_at_support_points():
    """The test is exact: P(p <= s) equals s for every achievable level s."""
    for r1, r2, c1 in [(6, 6, 4), (9, 5, 7), (12, 12, 12)]:
        pvals, lo, bound = fisher_margins(r1, r2, c1)
        pmf = [hypergeom_pmf(k, (r1, r2, c1)) for k in range(lo, lo + len(pvals))]
        for s in bound.support:
            mass = sum(w for w, p in zip(pmf, pvals) if p <= s * (1 + TIE_REL_TOL))
            assert mass == pytest.approx(s, rel=1e-9)


def test_margins_cache_consistency_with_table_api():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c, d = (rng.randint(0, 10) for _ in range(4))
        tab = ContingencyTable2x2(a, b, c, d)
        r = fisher_two_sided(tab)
        r1, r2, c1 = a + b, c + d, a + c
        pvals, lo, bound = fisher_margins(r1, r2, c1)
        assert r.p_value == pvals[a - lo]
        assert r.support == bound.support
        assert r.null_bound is bound
        if r1 == 0 or r2 == 0 or c1 == 0 or c1 == r1 + r2:
            assert r.p_value == 1.0
            assert bound.support.tolist() == [1.0]


@pytest.mark.parametrize("margins", [(8, 7, 5), (0, 3, 2), (400, 350, 300)])
def test_cached_p_values_are_read_only_and_a_result_holds_a_float(margins):
    """The cache hands every caller the same p-value array, so none may write it;
    a result's p-value is a Python float, not a numpy scalar."""
    pvals, lo, _ = fisher_margins(*margins)
    assert pvals is fisher_margins(*margins)[0]
    with pytest.raises(ValueError):
        pvals[0] = 0.5
    r1, r2, c1 = margins
    r = fisher_two_sided(ContingencyTable2x2(lo, r1 - lo, c1 - lo, r2 - c1 + lo))
    assert type(r.p_value) is float and r.p_value == pvals[0]


def test_the_cache_keeps_its_tables_within_budget_and_the_recently_used_margins(monkeypatch):
    """Distinct margins with 8x the cache's table budget between them leave at
    most the budget cached, so memory stays bounded; a small margin read
    between them stays a hit, since the least recently used margins go first."""
    budget = 1 << 13
    monkeypatch.setattr(discrete, "_CACHE_TABLES", budget)
    small = fisher_margins(3, 3, 3)[0]
    fisher_margins(1024, 1024, 1024)  # the lgamma table grows before tracing
    tracemalloc.start()
    try:
        for k in range(64):  # 1025 - k tables each: 64k in all
            fisher_margins(1024, 1024, 1024 + k)
            assert fisher_margins(3, 3, 3)[0] is small
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a cached table costs at most about 40 bytes (a p-value, a support point
    # and its slot), and one margin's pass under 256 kB; keeping every margin
    # would hold about 1.4 MB
    assert peak < 40 * budget + (256 << 10)


def test_a_margin_shares_one_read_only_support_buffer():
    """Every table of a margin reads one bound, whose support is one buffer of
    float64 points that no caller can write: not through the view, nor through
    an array over it."""
    r, s = (fisher_two_sided(ContingencyTable2x2(*t)) for t in [(3, 5, 2, 5), (4, 4, 1, 6)])
    assert r.null_bound is s.null_bound and r.support is s.support is r.null_bound.support
    support = r.support
    assert np.shares_memory(np.asarray(support), np.asarray(s.support))
    assert support.readonly and support.format == "d" and support.itemsize == 8
    with pytest.raises(TypeError):
        support[0] = 0.5
    points = np.asarray(support)
    with pytest.raises(ValueError):
        points[0] = 0.5
    with pytest.raises(ValueError):
        points.setflags(write=True)
    assert type(support[0]) is float and r.null_bound(support[0]) == support[0]


def test_a_cached_table_holds_about_16_bytes():
    """A cached margin holds 8 bytes a table for its p-values and 8 a support
    point, with no Python object per point: 64 distinct margins of 500 tables
    each, cached by a cache of their own, hold at most 20 bytes a table (a
    support of Python floats in a tuple held about 40)."""
    margins = [(700 + k, 600, 499) for k in range(64)]
    compute = fisher_margins_batch.__wrapped__
    compute(margins)  # the lgamma table grows before tracing
    cached = discrete._cached_per_margin(compute)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, 64, 16):
            cached(margins[start:start + 16])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points = sum(len(cached([m])[0][2].support) for m in margins)
    assert points > 0.99 * 64 * 500  # a support point for nearly every table
    assert held <= 20 * 64 * 500, held / (64 * 500)


def test_the_cache_keeps_at_most_its_margins_and_no_margin_past_its_budget(monkeypatch):
    """The least recently used margin goes when one more would pass the margin
    count, and a margin with more tables than the whole budget is not kept."""
    monkeypatch.setattr(discrete, "_CACHE_MARGINS", 4)
    monkeypatch.setattr(discrete, "_CACHE_TABLES", 100)
    margins = [(8, 7, c1) for c1 in range(5)]
    first = [fisher_margins(*m)[0] for m in margins]
    assert all(fisher_margins(*m)[0] is p for m, p in zip(margins[1:], first[1:]))
    assert fisher_margins(*margins[0])[0] is not first[0]  # evicted for the fifth
    over = fisher_margins(100, 100, 100)[0]  # 101 tables: computed, not kept
    assert fisher_margins(100, 100, 100)[0] is not over
    assert fisher_margins(*margins[-1])[0] is first[-1]


def test_exact_test_result_is_an_immutable_named_tuple():
    r = fisher_two_sided(ContingencyTable2x2(3, 5, 2, 5))
    p_value, support, bound = r
    assert r == (p_value, support, bound) and bound.support == support
    for field in ExactTestResult._fields:
        with pytest.raises(AttributeError):
            setattr(r, field, None)


@pytest.mark.parametrize("table", [(300, 300, 305, 295), (500, 500, 505, 495),
                                   (450, 350, 470, 330)])
def test_underflowed_tails_keep_a_valid_bound(table):
    """Large margins underflow some tail pmfs to 0.0; the test must still work,
    agree with scipy, and give a bound with F(u) <= u on its support."""
    from scipy.stats import fisher_exact

    a, b, c, d = table
    r = fisher_two_sided(ContingencyTable2x2(a, b, c, d))
    want = fisher_exact([[a, b], [c, d]], alternative="two-sided").pvalue
    assert r.p_value == pytest.approx(want, rel=1e-9)
    support = r.null_bound.support
    assert support[0] > 0.0
    for u in support:
        assert r.null_bound(u) <= u
    pvals, lo, bound = fisher_margins(a + b, c + d, a + c)
    assert bound is r.null_bound
    assert 0.0 not in pvals
    # the raised tail p-values sit at the smallest positive one
    assert min(pvals) == support[0]
    assert pvals[0] == support[0]


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _fisher_margins_reference(r1, r2, c1, tol=TIE_REL_TOL):
    """The exact test as plain Python lists: (pvals, lo, support), with ties
    up to the relative tolerance ``tol``.

    Every floating-point operation of ``fisher_margins`` in the same order,
    so the two must agree bit for bit.
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
        j = bisect.bisect_right(sorted_pmf, pmf[i] * (1.0 + tol)) - 1
        pvals[i] = 1.0 if j == n - 1 else min(cum[j], 1.0)
    if 0.0 in pvals:
        floor = min(p for p in pvals if p > 0.0)
        pvals = [p or floor for p in pvals]
    support = sorted(set(pvals))
    if support[-1] != 1.0:
        support.append(1.0)
    return tuple(pvals), lo, tuple(support)


def _assert_identical(margins):
    """The margins' exact tests, from one uncached call over all of them, are
    the list reference's bit for bit."""
    margins = list(margins)
    for margin, (pvals, lo, bound) in zip(margins, fisher_margins_batch.__wrapped__(margins)):
        got = (tuple(pvals.tolist()), lo, tuple(bound.support))
        assert got == _fisher_margins_reference(*margin), margin
        # the bound is built without the public constructor's check, which passes
        assert StepCdf(support=bound.support) == bound


def test_fisher_margins_is_bit_identical_to_the_list_reference_small():
    margins = [(r1, r2, c1) for r1 in range(41) for r2 in range(41) for c1 in range(r1 + r2 + 1)]
    for start in range(0, len(margins), 2000):  # blocks of many passes each
        _assert_identical(margins[start:start + 2000])


def _mixed_margins():
    """Margins of every kind in one list: underflowing tails, one feasible
    table, symmetric ties, duplicates, groups past the lgamma table's cap (one
    of the largest group taken), and enough random margins to fill several
    passes."""
    rng = random.Random(23)
    margins = [(600, 600, 600), (2000, 2000, 2000), (10, 10, 0), (0, 5, 0), (7, 7, 7),
               (40, 40, 40), (8, 7, 5), (discrete._LGAMMA_CAP + 5, 30, 20),
               (discrete.MAX_GROUP, 5, 3), (7, 7, 7), (8, 7, 5)]
    for _ in range(300):
        r1, r2 = rng.randint(0, 200), rng.randint(0, 200)
        margins.append((r1, r2, rng.randint(0, r1 + r2)))
    return margins


def test_one_mixed_pass_is_each_margin_alone_bit_for_bit():
    """One call over margins of every kind gives each margin the bits of the
    list reference and of a pass of that margin alone; each p-value array owns
    its memory and is read-only."""
    margins = _mixed_margins()
    tables = sum(min(r1, c1) - max(0, c1 - r2) + 1 for r1, r2, c1 in margins)
    assert tables > 3 * discrete._PASS_CELLS  # at least four passes
    for margin, (pvals, lo, bound) in zip(margins, fisher_margins_batch.__wrapped__(margins)):
        want = _fisher_margins_reference(*margin)
        assert (tuple(pvals.tolist()), lo, tuple(bound.support)) == want, margin
        [(alone, alone_lo, alone_bound)] = fisher_margins_batch.__wrapped__([margin])
        assert (alone.tolist(), alone_lo, alone_bound) == (pvals.tolist(), lo, bound), margin
        assert pvals.flags.owndata and not pvals.flags.writeable


def test_runs_of_ties_are_searched_within_their_margin(monkeypatch):
    """Three or more tables within the tie tolerance of each other (a run) take
    the last of them.  Runs of positive pmfs are rare at the tolerance 1e-7;
    at 50% they are common, and one pass still gives each margin the list
    reference's bits."""
    monkeypatch.setattr(discrete, "TIE_REL_TOL", 0.5)
    margins = [(r1, r2, c1) for r1 in range(0, 60, 7) for r2 in range(0, 60, 5)
               for c1 in range(0, r1 + r2 + 1, 3)]
    runs = 0
    for margin, (pvals, lo, bound) in zip(margins, fisher_margins_batch.__wrapped__(margins)):
        assert (tuple(pvals.tolist()), lo, tuple(bound.support)) == \
            _fisher_margins_reference(*margin, tol=0.5), margin
        r1, r2, c1 = margin
        pmf = sorted(hypergeom_pmf(k, margin) for k in range(lo, min(r1, c1) + 1))
        runs += any(0.0 < a and c <= a * 1.5 for a, c in zip(pmf, pmf[2:]))
    assert runs > 1000  # of 2070 margins


def test_a_cached_call_tests_each_distinct_margin_once(monkeypatch):
    """A call's duplicate margins share one result, and a margin cached by an
    earlier call is that call's result."""
    monkeypatch.setattr(discrete, "_CACHE_TABLES", 1 << 20)
    margins = [(31, 29, 17), (31, 29, 18), (31, 29, 17)]
    first, second, again = fisher_margins_batch(margins)
    assert first is again and first is not second
    assert fisher_margins_batch([(31, 29, 18)])[0] is second
    assert fisher_margins(31, 29, 17) is first


def test_an_empty_call_returns_no_results_and_leaves_the_lgamma_table():
    """An empty call returns []: the cache answers it without a pass, and the
    uncached call runs no pass and leaves the lgamma table as it was."""
    table = discrete._LGAMMA
    assert fisher_margins_batch([]) == []
    assert fisher_margins_batch.__wrapped__([]) == []
    assert discrete._LGAMMA is table


def test_fisher_margins_is_bit_identical_to_the_list_reference_large():
    rng = random.Random(2024)
    margins = []
    for _ in range(2000):
        r1, r2 = rng.randint(0, 400), rng.randint(0, 400)
        margins.append((r1, r2, rng.randint(0, r1 + r2)))
    for a, b, c, d in [(300, 300, 305, 295), (500, 500, 505, 495), (450, 350, 470, 330)]:
        margins.append((a + b, c + d, a + c))
    margins += [(n, n, n) for n in (1000, 10_000)]
    _assert_identical(margins)


def _exact_p_values(r1, r2, c1):
    """The exact two-sided p-values of the margins' tables k = lo, lo + 1, ...
    as mpmath numbers: each tail summed in integers and divided at 60 digits."""
    import mpmath

    lo = max(0, c1 - r2)
    # w[k - lo] = C(r1, k) C(r2, c1 - k): the pmf times C(r1 + r2, c1)
    w = [math.comb(r1, lo) * math.comb(r2, c1 - lo)]
    for k in range(lo, min(r1, c1)):
        w.append(w[-1] * (r1 - k) * (c1 - k) // ((k + 1) * (r2 - c1 + k + 1)))
    total = math.comb(r1 + r2, c1)
    ascending = sorted(w)
    tails = list(itertools.accumulate(ascending))
    assert tails[-1] == total
    with mpmath.workdps(60):
        # the tables at most as likely, up to the tie tolerance 1e-7
        return [mpmath.mpf(tails[bisect.bisect_right(ascending, wk * (10**7 + 1) // 10**7) - 1])
                / total for wk in w]


def _worst_relative_error(margins):
    """(the largest relative error of a p-value above the underflow floor
    against its exact value, how many p-values were checked)"""
    worst, checked = 0.0, 0
    for margin, (pvals, _, _) in zip(margins, fisher_margins_batch(margins)):
        for got, exact in zip(pvals.tolist(), _exact_p_values(*margin)):
            if exact > 1e-290:
                worst = max(worst, float(abs(got - exact) / exact))
                checked += 1
    return worst, checked


# the largest relative error of a p-value of groups up to 5000 against the
# exact tail sums: the log-pmf loses about |log C(r1 + r2, c1)| ulps
LARGE_MARGIN_REL_ERROR = 1e-9


def test_large_margins_match_exact_p_values_from_mpmath():
    """Seeded random margins with groups of 1000 to 5000: every p-value above
    the underflow floor is within LARGE_MARGIN_REL_ERROR of the exact one."""
    rng = random.Random(6)
    margins = []
    for _ in range(5):
        r1, r2 = rng.randint(1000, 5000), rng.randint(1000, 5000)
        margins.append((r1, r2, rng.randint(0, r1 + r2)))
    worst, checked = _worst_relative_error(margins)
    assert checked > 5000
    assert worst < LARGE_MARGIN_REL_ERROR, worst


def test_the_worst_margins_at_max_group_are_within_1e_6_of_mpmath():
    """MAX_GROUP's contract: two groups of MAX_GROUP, or one and a seeded
    group at least half of it, with a few to 150 tables (the lgamma values
    are largest there, and so their rounding) give every p-value within 1e-6
    relative of the exact one.  With groups of 2^53 it was above 1e30."""
    n = discrete.MAX_GROUP
    margins = [(n, n, c) for c in (1, 2, 7, 40, 150)] + [(n, n, 2 * n - 40)]
    rng = random.Random(24)
    for _ in range(6):
        groups = [n, rng.randint(n // 2, n)]
        rng.shuffle(groups)
        margins.append((*groups, rng.randint(1, 150)))
    worst, checked = _worst_relative_error(margins)
    assert checked > 500
    assert worst < 1e-6, worst


def test_fisher_margins_matches_scipy_on_random_tables():
    from scipy.stats import fisher_exact

    rng = random.Random(77)
    for _ in range(20):
        r1, r2 = rng.randint(1, 500), rng.randint(1, 500)
        c1 = rng.randint(0, r1 + r2)
        pvals, lo, _ = fisher_margins(r1, r2, c1)
        k = rng.randint(lo, min(r1, c1))
        want = fisher_exact([[k, r1 - k], [c1 - k, r2 - c1 + k]], alternative="two-sided").pvalue
        assert pvals[k - lo] == pytest.approx(want, rel=1e-9), (r1, r2, c1, k)


def test_lgamma_table_holds_math_lgamma_and_stops_at_its_cap(monkeypatch):
    """The table grows (by doubling, within its cap) only when the growth adds
    at most the 4n values a margin with n feasible tables reads."""
    monkeypatch.setattr(discrete, "_LGAMMA", np.array([math.inf]))
    monkeypatch.setattr(discrete, "_LGAMMA_CAP", 64)
    _assert_identical([(10, 12, 9)])  # 10 tables: 13 new values for lgamma up to index 13
    assert len(discrete._LGAMMA) == 14
    table = discrete._LGAMMA
    _assert_identical([(30, 5, 1)])  # 2 tables read 8 values, the growth to 32 adds 18
    assert discrete._LGAMMA is table
    _assert_identical([(30, 5, 5)])  # 6 tables read 24 values
    assert len(discrete._LGAMMA) == 32
    _assert_identical([(40, 5, 5)])  # the doubling to 64 adds 32 values for 24 read
    assert len(discrete._LGAMMA) == 32
    _assert_identical([(40, 30, 20)])  # 21 tables: doubling, stopped at the cap
    table = discrete._LGAMMA
    assert len(table) == 64
    assert table[1:].tolist() == [math.lgamma(i) for i in range(1, 64)]
    # a group past the cap reads each lgamma value directly, with the same result
    _assert_identical([(63, 63, 63), (100, 100, 100), (70, 3, 2), (2, 90, 50)])
    assert discrete._LGAMMA is table
    assert hypergeom_pmf(50, (100, 100, 100)) == math.exp(
        _log_comb(100, 50) + _log_comb(100, 50) - _log_comb(200, 100))


@pytest.mark.parametrize("margins", [(10**6, 5, 3), (10**6, 5, 0), (1_048_000, 1_048_000, 5)])
def test_a_few_tables_of_a_large_group_leave_the_lgamma_table_as_it_was(monkeypatch, margins):
    """A margin with a large group and a few feasible tables reads its lgamma
    values one at a time: it costs what it reads, not a table of a million."""
    table = np.array([math.inf])
    monkeypatch.setattr(discrete, "_LGAMMA", table)
    _assert_identical([margins])
    assert discrete._LGAMMA is table


def test_a_large_group_in_a_call_does_not_stop_the_table_growing_for_the_others(monkeypatch):
    """The table grows to the largest top whose growth the call's tables pay
    for: a margin too large to cover leaves the small margins beside it
    covered."""
    monkeypatch.setattr(discrete, "_LGAMMA", np.array([math.inf]))
    # 10 + 4 tables read 56 values; covering the large group would add about 10**6
    _assert_identical([(10, 12, 9), (10**6, 5, 3)])
    assert len(discrete._LGAMMA) == 14


def test_a_covered_and_an_uncovered_margin_share_one_pass(monkeypatch):
    """Two margins of 10 feasible tables each make one pass, though the table
    grows to cover only the first: the second computes its values one at a
    time, beside it."""
    monkeypatch.setattr(discrete, "_LGAMMA", np.array([math.inf]))
    passes = []
    exact_pass = discrete._exact_pass

    def counted(*args):
        passes.append(args)
        return exact_pass(*args)

    monkeypatch.setattr(discrete, "_exact_pass", counted)
    _assert_identical([(10, 12, 9), (10**6, 12, 9)])
    assert len(passes) == 1
    assert len(discrete._LGAMMA) == 14


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_a_count_that_is_not_an_integer_is_rejected_before_the_cache(cached, monkeypatch):
    """A float count, even a whole one, or a str raises the same ValueError
    whether or not its margins are cached; Python ints, bools and numpy
    integers are counts."""
    monkeypatch.setattr(discrete, "fisher_margins_batch",
                        discrete._cached_per_margin(fisher_margins_batch.__wrapped__))
    cells, margins = (1, 2, 3, 4), (3, 7, 4)
    if cached:
        fisher_two_sided(ContingencyTable2x2(*cells))
    # a whole float hashes as the int it equals, so only a check before the
    # lookup keeps it from the cached (3, 7, 4)
    with pytest.raises(ValueError, match="counts must be integers"):
        discrete.fisher_margins_batch([(3.0, 7, 4)])
    for i, bad in itertools.product(range(4), (float, lambda n: n + 0.5, str)):
        table = ContingencyTable2x2(*(bad(n) if j == i else n for j, n in enumerate(cells)))
        for call in (fisher_two_sided, discrete.table_margins):
            with pytest.raises(ValueError, match="counts must be integers"):
                call(table)
        if i < 3:
            with pytest.raises(ValueError, match="counts must be integers"):
                fisher_margins(*(bad(n) if j == i else n for j, n in enumerate(margins)))
    want = fisher_two_sided(ContingencyTable2x2(*cells))
    assert fisher_two_sided(ContingencyTable2x2(np.int64(1), 2, np.int32(3), 4)) == want
    assert fisher_two_sided(ContingencyTable2x2(True, 2, 3, 4)) == want
    assert discrete.table_margins((np.int64(1), True, 3, 4)) == (2, 7, 4)
    assert fisher_margins(np.int64(3), 7, np.uint8(4))[2] is want.null_bound


_BAD_CELLS = {
    "negative": (1, -1, 0, 2),  # margins (0, 2, 1), which the test takes
    "not-an-integer": (1, 1.0, 0, 2),
    "past-max-margin": (discrete.MAX_MARGIN + 1, 0, 0, discrete.MAX_MARGIN + 1),
    "past-max-group": (discrete.MAX_GROUP + 1, 0, 0, 1),
}


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("cells", _BAD_CELLS.values(), ids=_BAD_CELLS)
def test_fisher_two_sided_rejects_what_table_margins_rejects(cells, cached, monkeypatch):
    """Cells the exact test cannot take raise the ValueError of
    ``table_margins`` from ``fisher_two_sided`` too, whether or not their
    margins are cached: in the cached case the cache holds their margins and
    would answer them with (1, 1, 1)'s result."""
    compute = fisher_margins_batch.__wrapped__
    if cached:
        answer = compute([(1, 1, 1)])[0]

        def compute(margins):
            return [answer] * len(margins)

    monkeypatch.setattr(discrete, "fisher_margins_batch", discrete._cached_per_margin(compute))
    a, b, c, d = cells
    if cached:
        assert discrete.fisher_margins_batch([(int(a + b), c + d, int(a + c))]) == [answer]
    with pytest.raises(ValueError) as expected:
        discrete.table_margins(cells)
    with pytest.raises(ValueError) as got:
        fisher_two_sided(ContingencyTable2x2(*cells))
    assert str(got.value) == str(expected.value)


def test_inconsistent_margins_rejected():
    for margins in [(3, 3, 7), (-1, 3, 1), (3, -1, 1), (3, 3, -1)]:
        with pytest.raises(ValueError):
            fisher_margins(*margins)
