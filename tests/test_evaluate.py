import json
import math

import numpy as np
import pytest

from sure_omt.core import IDENTITY_BOUND
from sure_omt.discrete import support_to_bound
from sure_omt.evaluate import (Estimate, EvalReport, TrialOutcome, estimate_fwer,
                               estimate_mfdr, estimate_power, wealth_curves)
from sure_omt.spending import make_power_law


def _trial(rejects, labels):
    return TrialOutcome(np.array(rejects, bool), np.array(labels, bool))


def test_outcome_counting():
    tr = _trial([1, 0, 1, 1], [0, 0, 1, 1])
    assert tr.false_discoveries(4) == 1
    assert tr.true_discoveries(4) == 2
    assert tr.discoveries(4) == 3
    assert tr.false_discoveries(1) == 1
    assert tr.discoveries(2) == 1
    with pytest.raises(ValueError):
        _trial([1, 0], [0])


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
    assert rep.value("rho-ob", "fwer") == 0.1
    assert len(rep.filter(metric="power")) == 1
    with pytest.raises(KeyError):
        rep.value("nope", "fwer")

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
