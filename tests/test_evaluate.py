import json
import math

import numpy as np
import pytest

from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import support_to_bound
from sure_omt.evaluate import (Estimate, EvalReport, TrialOutcome, estimate_fwer,
                               estimate_mfdr, estimate_power)
from sure_omt.spending import make_power_law

from conftest import report_rows, report_value
from oracles import wealth_curves


def _trial(rejects, labels):
    return TrialOutcome(np.array(rejects, bool), np.array(labels, bool))


# -- the per-trial estimators the array estimators replaced, as their oracle --

def _false_discoveries(tr, T):
    return int(np.sum(tr.rejects[:T] & ~tr.labels[:T]))


def _discoveries(tr, T):
    return int(np.sum(tr.rejects[:T]))


def _true_discoveries(tr, T):
    return int(np.sum(tr.rejects[:T] & tr.labels[:T]))


def _oracle_fwer(trials, T):
    n = len(trials)
    hits = sum(1 for tr in trials if _false_discoveries(tr, T) >= 1)
    p = hits / n
    return Estimate(p, math.sqrt(p * (1.0 - p) / n), n)


def _oracle_mfdr(trials, T):
    n = len(trials)
    x = np.array([_false_discoveries(tr, T) for tr in trials], dtype=float)
    y = np.array([max(1, _discoveries(tr, T)) for tr in trials], dtype=float)
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    if n > 1:
        sxx = x.var(ddof=1)
        syy = y.var(ddof=1)
        sxy = float(np.cov(x, y, ddof=1)[0, 1])
        var = (sxx - 2.0 * ratio * sxy + ratio * ratio * syy) / (n * ybar * ybar)
        se = math.sqrt(max(0.0, var))
    else:
        se = float("nan")
    return Estimate(ratio, se, n)


def _oracle_power(trials, T):
    props = [_true_discoveries(tr, T) / max(1, int(np.sum(tr.labels))) for tr in trials]
    arr = np.asarray(props)
    n = len(arr)
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return Estimate(float(arr.mean()), se, n)


ESTIMATORS = [(estimate_fwer, _oracle_fwer), (estimate_mfdr, _oracle_mfdr),
              (estimate_power, _oracle_power)]


def _assert_same(got, want):
    """Equal value, se and n_trials, bit for bit; a NaN se matches a NaN se."""
    assert got.value == want.value and got.n_trials == want.n_trials
    assert got.se == want.se or (math.isnan(got.se) and math.isnan(want.se))


def test_outcome_counting():
    with pytest.raises(ValueError):
        _trial([1, 0], [0])
    with pytest.raises(ValueError):
        TrialOutcome(np.zeros((3, 4), bool), np.zeros((4, 3), bool))


def test_estimators_match_per_trial_oracle():
    """A block, its rows one by one and a mix of both give the per-trial
    estimates exactly, for K = 1..40 trials, m = 1..60 and every T <= m."""
    rng = np.random.default_rng(8)
    for m in range(1, 61):
        K = 1 + (m - 1) % 40
        labels = rng.random((K, m)) < rng.random()
        rejects = rng.random((K, m)) < rng.random()
        block = TrialOutcome(rejects, labels)
        rows = [TrialOutcome(r, lab) for r, lab in zip(rejects, labels)]
        mixed = rows[:K // 2] + [TrialOutcome(rejects[K // 2:], labels[K // 2:])]
        for T in range(m + 1):
            for estimate, oracle in ESTIMATORS:
                want = oracle(rows, T)
                if K == 1 and estimate is not estimate_fwer:
                    assert math.isnan(want.se)  # FWER's se is 0 at n = 1
                for trials in ([block], rows, mixed):
                    _assert_same(estimate(trials, T), want)


def test_fwer_estimate():
    trials = [
        _trial([1, 0], [0, 0]),  # false rejection
        _trial([0, 1], [0, 1]),  # clean
        _trial([0, 0], [1, 0]),  # clean
        _trial([1, 1], [1, 0]),  # false rejection
    ]
    est = estimate_fwer(trials, 2)
    assert est.value == 0.5
    assert est.se == pytest.approx(math.sqrt(0.25 / 4))
    assert est.n_trials == 4


def test_mfdr_estimate_is_ratio_of_means():
    trials = [
        _trial([1, 1, 0], [0, 1, 0]),  # 1 false / 2 discoveries
        _trial([0, 0, 0], [0, 1, 0]),  # 0 false / max(1, 0)
        _trial([1, 1, 1], [1, 1, 1]),  # 0 false / 3
    ]
    est = estimate_mfdr(trials, 3)
    assert est.value == pytest.approx(1 / 6)  # mean(1,0,0) / mean(2,1,3)
    assert est.se >= 0.0


def test_power_estimate_is_mean_detection_fraction():
    trials = [
        _trial([1, 0, 0, 0], [1, 1, 0, 0]),  # 1 of 2
        _trial([0, 1, 0, 1], [0, 1, 0, 1]),  # 2 of 2
    ]
    est = estimate_power(trials, 4)
    assert est.value == pytest.approx((0.5 + 1.0) / 2)


def test_power_with_no_alternatives_is_zero():
    est = estimate_power([_trial([1, 0], [0, 0])], 2)
    assert est.value == 0.0


def test_estimators_require_trials():
    for f in (estimate_fwer, estimate_mfdr, estimate_power):
        with pytest.raises(ValueError):
            f([], 3)
        with pytest.raises(ValueError):
            f([TrialOutcome(np.zeros((0, 3), bool), np.zeros((0, 3), bool))], 3)


def test_wealth_curves_identity_bound_coincide():
    g = make_power_law(1.6)
    cdfs = [IDENTITY_BOUND] * 50
    nom, eff = wealth_curves(g, 0.2, cdfs, 50)
    assert np.allclose(nom, eff)
    assert nom[0] == pytest.approx(0.2 * (1 - g.gamma(1)))
    assert np.all(np.diff(nom) < 0)


def test_wealth_effective_dominates_nominal():
    g = make_power_law(1.6)
    cdfs = [support_to_bound((0.01, 0.5, 1.0))] * 50
    nom, eff = wealth_curves(g, 0.2, cdfs, 50)
    assert np.all(nom <= eff)
    with pytest.raises(ValueError):
        wealth_curves(g, 0.2, cdfs, 0)


def test_wealth_curves_with_realized_levels():
    g = make_power_law(1.6)
    bound = support_to_bound((0.05, 1.0))
    cdfs = [bound] * 3
    realized = [0.08, 0.03, 0.06]
    nom, eff = wealth_curves(g, 0.2, cdfs, 3, realized_alphas=realized)
    spent = [bound(a) for a in realized]  # 0.05, 0, 0.05
    assert eff[-1] == pytest.approx(0.2 - sum(spent))


def test_report_round_trip(tmp_path):
    rep = EvalReport()
    rep.add("rho-ob", "fwer", Estimate(0.1, 0.01, 100), 500, axis="pi_a", value=0.3)
    rep.add("ob", "power", Estimate(0.4, 0.02, 100), 500, axis="pi_a", value=0.3)
    assert report_value(rep, "rho-ob", "fwer") == 0.1
    assert len(report_rows(rep, metric="power")) == 1
    with pytest.raises(KeyError):
        report_value(rep, "nope", "fwer")

    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    rep.write(csv_path, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert "0.10000000000000001" in lines[1]  # 17 significant digits
    rep.to_csv(tmp_path / "alone.csv")
    assert (tmp_path / "alone.csv").read_bytes() == csv_path.read_bytes()

    data = json.loads(json_path.read_text())
    assert data[0]["procedure"] == "rho-ob"
    assert rep.audits_ok
