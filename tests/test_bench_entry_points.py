"""The entry points the benchmark (``bench/``) drives, as its README lists them.

``bench/test_smoke.py`` runs the whole benchmark and lies outside the default
test paths; this test touches each entry point once, the way the bench's
worker calls it, so a cut of the public surface fails here first.
"""

import csv
import importlib.util
import json
from pathlib import Path

import sure_omt
from sure_omt import cli, evaluate, procedures, simulate, spending
from sure_omt.procedures import RULES

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _bench_workloads():
    """bench/workloads.py (standard library only), loaded by its path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_entry_points(tmp_path):
    for name in sure_omt.__all__:
        assert getattr(sure_omt, name) is not None, name

    result = sure_omt.fisher_two_sided(sure_omt.ContingencyTable2x2(3, 1, 0, 4))
    assert sure_omt.support_to_bound(result.support) == result.null_bound
    assert 0.0 < result.p_value <= 1.0

    trial = simulate.generate_trial(simulate.ScenarioConfig(m=40, n_subjects=10), 0)
    assert len(trial.tables) == len(trial.pvals) == len(trial.bounds) == len(trial.labels) == 40

    # the traced analyze replay parses the specs of the bench's analyze config
    analyze_config = _bench_workloads().ANALYZE_CONFIG
    assert spending.parse_sequence_spec(analyze_config["gamma"]).kind == "power"
    assert spending.parse_sequence_spec(analyze_config["gamma_prime"]).kind == "kernel"

    gamma = spending.make_power_law(1.6)
    gammas_prime = {"kernel": spending.make_kernel(10), "power": spending.make_power_law(1.6)}
    report = evaluate.EvalReport()
    for reward, gamma_prime in gammas_prime.items():
        for name, rule in RULES.items():
            config = procedures.ProcedureConfig(
                alpha=0.2, gamma=gamma, lam=0.5, w0=0.1 if rule.investing else None,
                gamma_prime=gamma_prime if rule.rewarded else None)
            proc = sure_omt.make_procedure(name, config)
            for p, bound in zip(trial.pvals, trial.bounds):
                proc.emit_alpha()
                proc.observe(p, bound)
            assert len(proc.alphas) == len(proc.rejects) == 40
            assert proc.r_count == sum(proc.rejects)
            audit = (procedures.audit_mfdr_budget if rule.investing
                     else procedures.audit_fwer_budget)
            assert audit(proc).ok, (reward, name)
            trials = [evaluate.TrialOutcome(proc.rejects, trial.labels)]
            for metric in ("fwer", "mfdr", "power"):
                estimate = getattr(evaluate, f"estimate_{metric}")(trials, 40)
                report.add(name, metric, estimate, 40, axis="gamma_prime", value=reward)
    report.to_csv(tmp_path / "report.csv")
    assert len(list(csv.DictReader((tmp_path / "report.csv").open()))) == 2 * 9 * 3

    (tmp_path / "tables.csv").write_text(
        "id,a,b,c,d\n" + "".join(f"{t},{a},{b},{c},{d}\n"
                                 for t, (a, b, c, d) in enumerate(trial.tables, 1)))
    (tmp_path / "analyze.json").write_text(json.dumps(
        {"procedure": "rho-ob", "gamma": {"family": "power", "q": 1.6},
         "gamma_prime": {"family": "kernel", "h": 10}}))
    assert cli.main(["analyze", "--config", str(tmp_path / "analyze.json"),
                     "--input", str(tmp_path / "tables.csv"),
                     "--out-trace", str(tmp_path / "trace.csv")]) == 0
    (tmp_path / "simulate.json").write_text(json.dumps(
        {"scenario": {"m": 30, "n_subjects": 10, "n_trials": 2},
         "procedures": [{"name": name} for name in RULES]}))
    assert cli.main(["simulate", "--config", str(tmp_path / "simulate.json"),
                     "--out", str(tmp_path / "sim.csv")]) == 0
