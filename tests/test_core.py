import copy
import math
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sure_omt.core import IDENTITY_BOUND, Decision, StepCdf
from sure_omt.procedures import ProcedureConfig, make_procedure
from sure_omt.spending import make_greedy


def test_step_cdf_basic_evaluation():
    f = StepCdf(support=(0.1, 0.4, 1.0))
    assert f(0.0) == 0.0
    assert f(0.05) == 0.0
    assert f(0.1) == 0.1
    assert f(0.25) == 0.1
    assert f(0.4) == 0.4
    assert f(0.99) == 0.4
    assert f(1.0) == 1.0
    assert f(1.7) == 1.0  # clipped above 1


def test_step_cdf_validation():
    with pytest.raises(ValueError):
        StepCdf(support=())
    with pytest.raises(ValueError):
        StepCdf(support=(0.5, 0.2, 1.0))  # not increasing
    with pytest.raises(ValueError):
        StepCdf(support=(0.0, 1.0))  # 0 not allowed
    with pytest.raises(ValueError):
        StepCdf(support=(0.2, 0.5))  # must end at 1
    with pytest.raises(ValueError):
        StepCdf(support=(0.2, 1.0))(-0.5)


def test_identity_bound_is_exact():
    f = IDENTITY_BOUND
    assert f(0.37) == 0.37
    assert f(2.5) == 1.0
    assert 0.37 - f(0.37) == 0.0


def test_sure_reward_values():
    f = StepCdf(support=(0.1, 0.4, 1.0))
    assert 0.25 - f(0.25) == 0.25 - 0.1
    assert 0.1 - f(0.1) == 0.0   # at a jump the bound is tight
    assert 0.05 - f(0.05) == 0.05
    # observe() records the reward of the level it tested: alpha_1 = 0.2 here
    dec = make_procedure("ob", ProcedureConfig(alpha=0.2, gamma=make_greedy())).step(0.5, f)
    assert dec.alpha == 0.2
    assert dec.rho == 0.2 - 0.1


@given(st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=1.0))
def test_step_cdf_below_identity(points, u):
    support = tuple(sorted(set(points))) + (1.0,)
    f = StepCdf(support=support)
    v = f(u)
    assert 0.0 <= v <= u          # super-uniform: F(u) <= u
    assert v <= f(min(1.0, u + 0.01))  # monotone
    assert u - v >= 0.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_step_cdf_tight_at_jumps(u):
    f = StepCdf(support=(0.25, 0.5, 1.0))
    for s in f.support:
        assert f(s) == s
    assert f(u) in (0.0, *f.support)


def test_step_cdf_hashable_and_frozen():
    f = StepCdf(support=(0.5, 1.0))
    assert hash(f) == hash(StepCdf(support=(0.5, 1.0)))
    with pytest.raises(AttributeError):
        f.support = (1.0,)


def test_step_cdf_from_any_sequence_compares_by_its_points():
    """A bound built from any sequence of its points holds them as one
    read-only float64 view; bounds with the same points and flag are equal and
    hash alike, and a bound survives pickling, copying and its repr."""
    f = StepCdf(support=(0.25, 0.5, 1.0))
    for points in ([0.25, 0.5, 1], np.array([0.25, 0.5, 1.0]), array("d", [0.25, 0.5, 1.0]),
                   f.support):
        g = StepCdf(support=points)
        assert g == f and hash(g) == hash(f)
        assert g.support.readonly and g.support.format == "d"
        assert g.support.tolist() == [0.25, 0.5, 1.0]
    assert f != StepCdf(support=(0.25, 1.0)) and f != StepCdf(support=(0.25, 0.75, 1.0))
    assert StepCdf(support=(1.0,)) != IDENTITY_BOUND
    assert f != f.support.tolist()
    for other in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), eval(repr(f))):
        assert other == f and other(0.3) == 0.25
    assert repr(f) == "StepCdf(support=(0.25, 0.5, 1.0), exact_identity=False)"


def test_decision_is_an_immutable_named_tuple():
    d = Decision(3, 0.5, 0.1, False, 0.02, 0.06, 0.04, 0.0, 1)
    assert d.alpha == 0.1 and d.r_count == 1
    assert d == (3, 0.5, 0.1, False, 0.02, 0.06, 0.04, 0.0, 1)
    t, p, *_ = d
    assert (t, p) == (3, 0.5)
    for field in Decision._fields:
        with pytest.raises(AttributeError):
            setattr(d, field, 0)
