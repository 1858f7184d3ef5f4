import math
import warnings

import numpy as np
import pytest

from sure_omt.procedures import ProcedureConfig
from sure_omt.spending import (SUM_SLACK, SpendingSequence, _jm_norm, _jm_term,
                               _log_family_term, _log_norm, _power_norm, make_explicit,
                               make_greedy, make_jm_family, make_kernel, make_log_family,
                               make_power_law, parse_sequence_spec)

# Normalizing constants frozen from an independent high-precision computation
# (truncated series at two different lengths plus the analytic tail integral
# and Euler-Maclaurin correction, agreeing to > 20 digits).
ZETA_1_6 = 2.28576566568012963583465513038
LOG_NORM_Q2 = 2.109742801236891974479
JM_NORM = 11.9519606923118057378656659779


def _prefix(g, t):
    """sum_{s<=t} gamma_s, summed left to right."""
    return np.cumsum(g.table(t)).item(t)


def _tail_bound(g, t):
    """Upper bound on sum_{s>t} gamma_s: the remaining values of a finite
    sequence, else the family's tail integral from t + 1 plus the term there."""
    if g.window is not None:
        return math.fsum(g.table(g.window)[t + 1:g.window + 1].tolist())
    a = float(t + 1)
    if g.kind == "power":
        raw = a ** (1 - g.q) / (g.q - 1) + a ** -g.q
    elif g.kind == "log":
        raw = math.log(a + 1.0) ** (1 - g.q) / (g.q - 1) + _log_family_term(a, g.q)
    else:
        u0 = math.sqrt(math.log(a + 1.0))
        raw = 2.0 * math.exp(-u0) * (u0 ** 3 + 3 * u0 ** 2 + 6 * u0 + 6) + _jm_term(a)
    return raw / g.norm


def _mass_within_one(g, horizon):
    """Nonnegative values up to ``horizon``, and their sum plus the tail past it
    at most 1 + SUM_SLACK.  The analytic tail bound overshoots the true tail by
    about half the first omitted term, so the sharper midpoint estimate is used."""
    tail = _tail_bound(g, horizon)
    if g.window is None:
        tail -= 0.5 * g.gamma(horizon + 1)
    return bool((g.table(horizon) >= 0.0).all()) and _prefix(g, horizon) + tail <= 1.0 + SUM_SLACK


def test_power_law_normalization():
    g = make_power_law(1.6)
    assert math.isclose(g.norm, ZETA_1_6, rel_tol=1e-13)
    # ratio of consecutive values is exactly (t+1)^q / t^q
    assert math.isclose(g.gamma(1) / g.gamma(2), 2.0 ** 1.6, rel_tol=1e-12)
    assert math.isclose(g.gamma(3) / g.gamma(6), 2.0 ** 1.6, rel_tol=1e-12)


def test_log_family_normalization():
    g = make_log_family(2.0)
    assert math.isclose(g.norm, LOG_NORM_Q2, rel_tol=1e-12)
    # unnormalized ratio gamma_1/gamma_2 = (3 ln^2 3) / (2 ln^2 2)
    want = (3.0 * math.log(3.0) ** 2) / (2.0 * math.log(2.0) ** 2)
    assert math.isclose(g.gamma(1) / g.gamma(2), want, rel_tol=1e-12)


def test_jm_family_normalization():
    g = make_jm_family()
    assert math.isclose(g.norm, JM_NORM, rel_tol=1e-12)
    t = 5.0
    want = math.log(t + 1) / ((t + 1) * math.exp(math.sqrt(math.log(t + 1)))) / JM_NORM
    assert math.isclose(g.gamma(5), want, rel_tol=1e-12)


def test_gamma_zero_for_nonpositive_t():
    for g in (make_power_law(1.6), make_kernel(3), make_greedy()):
        assert g.gamma(0) == 0.0
        assert g.gamma(-4) == 0.0
        assert g.table(0)[0] == 0.0


def test_kernel_values_and_mass():
    g = make_kernel(4)
    assert [g.gamma(t) for t in range(1, 7)] == [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
    assert _prefix(g, 4) == 1.0
    assert _tail_bound(g, 4) == 0.0


def test_greedy_is_unit_mass_at_one():
    g = make_greedy()
    assert g.gamma(1) == 1.0
    assert g.gamma(2) == 0.0
    assert _prefix(g, 100) == 1.0


def test_explicit_sequence():
    g = make_explicit([0.5, 0.3])
    assert g.gamma(1) == 0.5 and g.gamma(2) == 0.3 and g.gamma(3) == 0.0
    assert _prefix(g, 2) == 0.8
    with pytest.raises(ValueError):
        make_explicit([0.5, -0.1])
    assert _prefix(make_explicit([0.5, 0.5 + SUM_SLACK / 2]), 2) > 1.0  # within the slack


@pytest.mark.parametrize("values", [[math.nan], [0.2, math.inf], [0.9, 0.9, 0.9], [2.0],
                                    [0.5, 0.5, 2 * SUM_SLACK]])
def test_explicit_sequence_rejects_non_finite_and_mass_above_one(values):
    with pytest.raises(ValueError):
        make_explicit(values)
    with pytest.raises(ValueError):
        parse_sequence_spec({"family": "explicit", "values": values})


def test_prefix_matches_direct_sum():
    """np.cumsum of a table is the left-to-right running sum, bit for bit (the
    dual-recursion oracle reads its prefix sums so)."""
    for g in (make_power_law(2.0), make_log_family(1.5), make_jm_family()):
        direct = 0.0
        for t in range(1, 200):
            direct += g.gamma(t)
            assert _prefix(g, t) == direct


@pytest.mark.parametrize("factory", [
    lambda: make_power_law(1.6),
    lambda: make_power_law(3.0),
    lambda: make_log_family(2.0),
    lambda: make_jm_family(),
    lambda: make_kernel(100),
    lambda: make_greedy(),
])
def test_total_mass_at_most_one(factory):
    g = factory()
    assert _mass_within_one(g, 5000)
    assert _prefix(g, 5000) <= 1.0 + SUM_SLACK
    # the upper tail bound may overshoot by about half the next term
    assert _prefix(g, 5000) + _tail_bound(g, 5000) <= 1.0 + 1e-5


def test_mass_detects_violation():
    assert not _mass_within_one(SpendingSequence(kind="explicit", values=(0.9, 0.3)), 10)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_power_law(1.0)
    with pytest.raises(ValueError):
        make_log_family(0.9)
    # NaN <= 1 is false, so a NaN q used to pass and make every gamma_t NaN
    for q in (math.nan, math.inf):
        for factory in (make_power_law, make_log_family):
            with pytest.raises(ValueError, match="finite q > 1"):
                factory(q)
    with pytest.raises(ValueError):
        make_kernel(0)


def test_kernel_bandwidth_must_be_an_integer():
    # a fractional or bool bandwidth used to be truncated: 2.5 -> 2, True -> 1
    for h in (2.5, True, "10", None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="integer"):
            make_kernel(h)
    for h in (2.7, True):
        with pytest.raises(ValueError, match="integer"):
            parse_sequence_spec({"family": "kernel", "h": h})
    assert make_kernel(3).h == 3
    # a whole float is its integer, as in a JSON spec or sweep value 10.0
    for h in (2.0, np.float64(2.0)):
        assert type(make_kernel(h).h) is int and make_kernel(h).h == 2
    assert parse_sequence_spec({"family": "kernel", "h": 10.0}).h == 10


def test_parse_sequence_spec():
    g = parse_sequence_spec({"family": "power", "q": 1.6})
    assert g.kind == "power" and g.q == 1.6
    assert parse_sequence_spec({"family": "kernel", "h": 7}).h == 7
    assert parse_sequence_spec({"family": "greedy"}).values == (1.0,)
    assert parse_sequence_spec({"family": "jm"}).kind == "jm"
    assert parse_sequence_spec({"family": "log", "q": 2.0}).kind == "log"
    assert parse_sequence_spec({"family": "explicit", "values": [0.25, 0.25]}).gamma(2) == 0.25
    with pytest.raises(ValueError):
        parse_sequence_spec({"family": "nope"})


def test_tail_bound_dominates_remaining_mass():
    for g in (make_power_law(1.6), make_log_family(2.0), make_jm_family()):
        tail_sum = sum(g.gamma(t) for t in range(101, 3000))
        assert _tail_bound(g, 100) >= tail_sum


@pytest.mark.parametrize("spec", [
    {"family": "kernel", "h": 5, "q": 3},
    {"family": "jm", "q": 2},
    {"family": "greedy", "values": [0.5]},
    {"family": "power", "q": 1.6, "h": 10},
    {"family": "explicit", "values": [0.5], "q": 2},
    {"family": "power"},
    {"family": "kernel"},
])
def test_spec_takes_exactly_its_family_keys(spec):
    # a foreign key used to be ignored, and a missing one raised a bare KeyError
    with pytest.raises(ValueError, match=r"(unknown|missing) key\(s\) \w+; a \w+ spending spec "
                                         r"takes family"):
        parse_sequence_spec(spec)


@pytest.mark.parametrize("q", [270.5, 300.0, 1e5])
def test_log_q_whose_normalizer_overflows_is_rejected(q):
    # its last term's log^q used to raise OverflowError
    with pytest.raises(ValueError, match="too large"):
        make_log_family(q)
    with pytest.raises(ValueError, match="too large"):
        parse_sequence_spec({"family": "log", "q": q})


def test_large_log_q_builds_without_a_warning():
    # numpy's overflow in the partial sum used to print a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = make_log_family(268.0)
    assert math.isfinite(g.norm) and g.gamma(1) > 0.0


def test_log_gamma_whose_denominator_overflows_reads_zero():
    """From about t = 1e6 a q just below the limit overflows log(t+1)**q; gamma_t
    used to raise OverflowError there, and reads 0."""
    g = make_log_family(270.0)
    assert _log_family_term(1_100_000.0, g.q) == 0.0  # what table() extends by
    assert g.gamma(1) > 0.0


@pytest.mark.parametrize("spec", [
    {"family": "power", "q": "2"},
    {"family": "log", "q": "2.0"},
    {"family": "power", "q": True},
    {"family": "power", "q": None},
    {"family": "explicit", "values": "1"},
    {"family": "explicit", "values": [0.5, "0.25"]},
    {"family": "explicit", "values": [True]},
    {"family": "explicit", "values": 0.5},
])
def test_spec_numbers_are_not_strings_or_bools(spec):
    # "2" used to build q = 2.0, and the values "1" the greedy sequence
    with pytest.raises(ValueError, match="must be a"):
        parse_sequence_spec(spec)


@pytest.mark.parametrize("factory,norm", [
    (lambda: make_power_law(1.7), _power_norm),
    (lambda: make_log_family(1.7), _log_norm),
    (make_jm_family, _jm_norm),
])
def test_normalizing_constant_is_computed_once_per_q(factory, norm):
    first = factory()
    misses = norm.cache_info().misses
    second = factory()
    assert norm.cache_info().misses == misses
    assert second == first and second.norm == first.norm


def test_integer_q_shares_the_float_q_constant():
    misses = _power_norm.cache_info().misses
    assert make_power_law(3).norm == make_power_law(3.0).norm
    assert _power_norm.cache_info().misses <= misses + 1


def test_equality_ignores_evaluated_values():
    a, b = make_power_law(1.6), make_power_law(1.6)
    a.gamma(5)  # used to make a != b
    assert a == b
    a.table(40)
    assert a == b and b == a
    assert ProcedureConfig(alpha=0.2, gamma=a) == ProcedureConfig(alpha=0.2, gamma=b)
    assert make_power_law(1.6) != make_power_law(1.7)
    assert make_kernel(3) != make_kernel(4)


@pytest.mark.parametrize("factory,window", [
    (lambda: make_power_law(1.6), None),
    (lambda: make_log_family(1.5), None),
    (make_jm_family, None),
    (lambda: make_kernel(7), 7),
    (lambda: make_explicit([0.4, 0.3, 0.2]), 3),
    (make_greedy, 1),
])
def test_table_and_window(factory, window):
    g = factory()
    assert g.window == window
    if window is not None:
        assert g.gamma(window) > 0.0 and g.gamma(window + 1) == 0.0
    small = g.table(5)
    big = g.table(300)
    assert len(small) > 5 and len(big) > 300
    assert g.table(3) is big  # kept on the sequence
    # an older table stays a correct prefix of the regrown one
    assert big[:len(small)].tolist() == small.tolist()
    for table in (small, big):
        with pytest.raises(ValueError):
            table[1] = 0.5


@pytest.mark.parametrize("factory,closed_form", [
    (lambda: make_power_law(1.6), lambda t, g: t ** -1.6 / g.norm),
    (lambda: make_log_family(1.5),
     lambda t, g: 1.0 / ((t + 1.0) * math.log(t + 1.0) ** 1.5) / g.norm),
    (make_jm_family,
     lambda t, g: math.log(t + 1.0) / ((t + 1.0) * math.exp(math.sqrt(math.log(t + 1.0))))
     / g.norm),
    (lambda: make_kernel(7), lambda t, g: 1 / 7 if t <= 7 else 0.0),
    (lambda: make_explicit([0.4, 0.3, 0.2]),
     lambda t, g: (0.4, 0.3, 0.2)[t - 1] if t <= 3 else 0.0),
    (make_greedy, lambda t, g: 1.0 if t == 1 else 0.0),
])
@pytest.mark.parametrize("gamma_first", [False, True])
def test_table_holds_the_closed_form_bits(factory, closed_form, gamma_first):
    """Every entry of the table, across regrowths, is its family's closed form
    evaluated in Python, bit for bit."""
    g = factory()
    if gamma_first:  # the table is first built by gamma(t)
        assert g.gamma(3) == closed_form(3, g)
    small = g.table(5)
    big = g.table(300)
    assert len(small) < len(big)
    assert big.item(0) == 0.0
    for k in range(1, len(big)):
        assert big.item(k) == closed_form(k, g), k


def _assert_per_value_bits(g, value):
    """Through regrowths up to 1.2e5 values, the table holds the bytes of
    ``value(t)`` at every index t >= 1; an old table stays a prefix of the new one."""
    tables = [g.table(n) for n in (5, 300, 60_000)]
    want = np.array([0.0] + [value(t) for t in range(1, len(tables[-1]))])
    assert len(want) > 100_000
    for table in tables:
        assert table.tobytes() == want[:len(table)].tobytes()


@pytest.mark.parametrize("q", [1.01, 1.6, 2, 3])
def test_power_table_holds_the_per_value_bits_across_regrowth(q):
    """The power table, filled by math.pow and one numpy division, holds the
    per-value t ** -q / norm."""
    g = make_power_law(q)
    _assert_per_value_bits(g, lambda t: t ** -q / g.norm)


@pytest.mark.parametrize("factory,term", [
    (lambda: make_log_family(1.6), lambda t: _log_family_term(float(t), 1.6)),
    (lambda: make_log_family(3), lambda t: _log_family_term(float(t), 3)),
    (make_jm_family, lambda t: _jm_term(float(t))),
], ids=["log-1.6", "log-3", "jm"])
def test_log_and_jm_tables_hold_the_per_value_bits_across_regrowth(factory, term):
    """The log and jm tables, filled by their term and one numpy division, hold
    the per-value term(t) / norm."""
    g = factory()
    _assert_per_value_bits(g, lambda t: term(t) / g.norm)
