import numpy as np
import pytest

from sure_omt.cli import parse_procedures
from sure_omt.discrete import ContingencyTable2x2, fisher_two_sided
from sure_omt.simulate import (PLACEMENTS, ScenarioConfig, _exact_tests, generate_trial,
                               place_signal, run_sweep, run_trials, sweep_points)

from conftest import report_value
from oracles import place_signal_oracle


def _standard_configs(*names):
    return parse_procedures([{"name": n} for n in names])


def test_scenario_counts_default():
    sc = ScenarioConfig()
    assert sc.m3 == 150            # round(0.3 * 500)
    assert sc.m2 == 175
    assert sc.m1 == 175
    assert sc.m1 + sc.m2 + sc.m3 == sc.m


def test_scenario_odd_remainder_goes_to_low_group():
    sc = ScenarioConfig(m=10, pi_a=0.3)
    assert sc.m3 == 3
    assert sc.m2 == 3
    assert sc.m1 == 4


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(placement="nope")
    with pytest.raises(ValueError, match="pi_a must lie in"):
        ScenarioConfig(pi_a=1.5)
    with pytest.raises(ValueError, match="p_null_mid must lie in"):
        ScenarioConfig(p_null_mid=-0.1)
    with pytest.raises(ValueError):
        ScenarioConfig(n_trials=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_subjects=-1)
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(seed=-1)
    # integer fields take integers only, as JSON configs give them
    for field in ("m", "n_trials", "n_subjects", "seed"):
        for value in (50.0, True, "5"):
            with pytest.raises(ValueError, match=field):
                ScenarioConfig(**{field: value})


def test_placement_block_conventions():
    # m=10, m3=4: first block ceil(4/2)=2, anchors at start / middle / end
    assert place_signal(10, 4, "B") == (1, 2, 3, 4)
    assert place_signal(10, 4, "E") == (7, 8, 9, 10)
    assert place_signal(10, 4, "BM") == (1, 2, 5, 6)
    assert place_signal(10, 4, "BE") == (1, 2, 9, 10)
    assert place_signal(10, 4, "ME") == (5, 6, 9, 10)
    assert place_signal(10, 0, "B") == ()
    with pytest.raises(ValueError):
        place_signal(10, 11, "B")
    with pytest.raises(ValueError):
        place_signal(10, 4, "Random")  # needs an rng


def test_placement_blocks_shift_to_stay_disjoint():
    # small stream: middle and end blocks would overlap without shifting
    for scheme in PLACEMENTS[:-1]:
        for m, m3 in [(6, 5), (8, 7), (10, 9)]:
            idx = place_signal(m, m3, scheme)
            assert len(idx) == m3
            assert len(set(idx)) == m3
            assert all(1 <= i <= m for i in idx)


def test_placement_matches_the_branch_per_scheme_reference():
    """Every scheme at every m <= 60 and m3 <= m gives the reference's tuple,
    and Random leaves the generator in the reference's state."""
    for m in range(1, 61):
        for m3 in range(m + 1):
            for scheme in PLACEMENTS:
                rng, ref_rng = np.random.default_rng(m3), np.random.default_rng(m3)
                assert place_signal(m, m3, scheme, rng) == \
                    place_signal_oracle(m, m3, scheme, ref_rng), (m, m3, scheme)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (m, m3)
    with pytest.raises(ValueError, match="unknown placement 'X'"):
        place_signal(10, 4, "X")
    assert place_signal(10, 0, "X") == place_signal_oracle(10, 0, "X") == ()


def test_random_placement_uses_rng():
    rng = np.random.default_rng(0)
    idx = place_signal(100, 10, "Random", rng)
    assert len(set(idx)) == 10
    assert idx == tuple(sorted(idx))
    # the same draw, as ints, as the per-position sort gives it
    draw = np.random.default_rng(0).choice(100, size=10, replace=False)
    assert idx == tuple(sorted(int(i) + 1 for i in draw))
    assert all(type(i) is int for i in idx)


def test_generate_trial_is_deterministic():
    sc = ScenarioConfig(m=50, n_trials=1)
    a = generate_trial(sc, 3)
    b = generate_trial(sc, 3)
    assert a.tables == b.tables
    assert a.pvals == b.pvals
    c = generate_trial(sc, 4)
    assert a.tables != c.tables


def test_generate_trial_structure():
    sc = ScenarioConfig(m=40, pi_a=0.25, n_subjects=10, placement="B")
    tr = generate_trial(sc, 0)
    assert len(tr.tables) == 40
    assert int(tr.labels.sum()) == sc.m3
    assert all(tr.labels[:sc.m3])  # B places alternatives at the start
    for (a, b, c, d), p in zip(tr.tables, tr.pvals):
        assert a + b == 10 and c + d == 10
        assert 0.0 < p <= 1.0
    for tab, p, bound in zip(tr.tables, tr.pvals, tr.bounds):
        assert p in bound.support  # p-values live on the announced support
        r = fisher_two_sided(ContingencyTable2x2(*tab))
        assert (r.p_value, r.null_bound) == (p, bound)


def test_generate_trial_degenerate_margins():
    """Without subjects, or without successes, each table is the only one its
    margins allow: p = 1 with support (1.0,)."""
    for sc in (ScenarioConfig(m=30, n_subjects=0),
               ScenarioConfig(m=30, n_subjects=8, p3=0.0, p_null_low=0.0, p_null_mid=0.0)):
        tr = generate_trial(sc, 0)
        assert tr.pvals == [1.0] * 30
        assert all(bound.support.tolist() == [1.0] for bound in tr.bounds)


@pytest.mark.parametrize("n,probs", [(12, (0.05, 0.5)), (3, (0.5, 0.9)), (0, (0.3, 0.3)),
                                     (8, (0.0, 0.0))])
def test_exact_tests_match_fisher_table_by_table(n, probs):
    """A block of trials and a single trial: each table's p-value and bound are
    fisher_two_sided's, and the bound indices point past the bounds already
    in the table."""
    rng = np.random.default_rng(n)
    succ_a = rng.binomial(n, probs[0], size=(6, 25))
    succ_b = rng.binomial(n, probs[1], size=(6, 25))
    for a, c in ((succ_a, succ_b), (succ_a[2], succ_b[2])):
        table = ["kept"]
        pvals, ids = _exact_tests(n, a, c, table)
        assert pvals.shape == ids.shape == a.shape and table[0] == "kept"
        assert ids.min() >= 1 and len(table) == 1 + len(np.unique(a + c))
        for x, y, p, i in zip(a.ravel().tolist(), c.ravel().tolist(), pvals.ravel().tolist(),
                              ids.ravel().tolist()):
            r = fisher_two_sided(ContingencyTable2x2(x, n - x, y, n - y))
            assert (p, table[i]) == (r.p_value, r.null_bound)
        if n == 0 or probs == (0.0, 0.0):
            assert pvals.tolist() == np.ones(a.shape).tolist()


def test_run_trials_and_containment():
    sc = ScenarioConfig(m=60, n_subjects=15, n_trials=5)
    res = run_trials(sc, _standard_configs("aob", "rho-aob"))
    assert res.audits_ok
    base, rich = res.outcomes["aob"], res.outcomes["rho-aob"]
    assert base.rejects.shape == rich.rejects.shape == (5, 60)  # one row per trial
    # domination: every base rejection is also a rewarded rejection, in every trial
    assert np.all(rich.rejects | ~base.rejects)


def test_run_sweep_reports_each_value():
    sc = ScenarioConfig(m=40, n_subjects=10, n_trials=3)
    configs = _standard_configs("rho-ob")
    rep = run_sweep(sweep_points(sc, configs, "pi_a", [0.1, 0.5]))
    assert report_value(rep, "rho-ob", "power", value=0.1) >= 0.0
    assert len(rep.rows) == 6  # 2 grid points x 3 metrics
    with pytest.raises(ValueError):
        sweep_points(sc, configs, "bogus", [1])
    with pytest.raises(ValueError):
        sweep_points(sc, configs, "pi_a", [])
    # an h point replaces only the gamma' of the rewarded rules
    [point] = sweep_points(sc, _standard_configs("ob", "rho-ob"), "h", [5])
    assert point.configs["ob"].gamma_prime is None
    assert point.configs["rho-ob"].gamma_prime.h == 5


def test_run_sweep_lambda_axis_changes_results():
    sc = ScenarioConfig(m=60, n_subjects=15, n_trials=4, seed=2)
    points = sweep_points(sc, _standard_configs("rho-alord"), "lambda", [0.0, 0.8])
    assert [p.configs["rho-alord"].lam for p in points] == [0.0, 0.8]
    rep = run_sweep(points)
    assert len(rep.rows) == 6
    assert (report_value(rep, "rho-alord", "power", value=0.0)
            != report_value(rep, "rho-alord", "power", value=0.8))
