"""Golden sha256 digests of ``sure-omt`` outputs.

- ``simulate``: each case runs all 9 procedures on their standard configs and
  hashes the report CSV and JSON.
- ``analyze``: each case runs one procedure over the same seeded table CSV
  (``write_tables``) and hashes the trace and the summary.  Every procedure
  runs at each lambda of ``LAMBDAS``; a rewarded one runs with each gamma' of
  ``GAMMA_PRIMES``.  An adaptive procedure is given lambda as a key of its
  config; the others take no such key, and get lambda as analyze's default,
  which they ignore (see ``DEFAULT_LAMBDA``).
- ``plotdata``: the raw and loglog plot data of one analyze trace.
- ``stream``: each case steps one rewarded procedure with a power, log or jm
  gamma' (no reward window) over one seeded ``STREAM_STEPS``-step
  ``generate_trial`` stream, long enough that the reward sums cross several
  buffer rebuilds, and hashes its alphas, spent levels and reject flags.

``golden.json`` holds the digests and the Python and numpy versions they were
made with; ``test_golden.py`` compares against it.  Regenerate it only on
purpose, with

    PYTHONPATH=src python tests/golden.py

and say in CHANGES.md which digest changed and why.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import platform
import random
import sys
import tempfile
from unittest import mock

import numpy as np

from sure_omt import cli
from sure_omt.cli import main
from sure_omt.procedures import RULES, ProcedureConfig, make_procedure
from sure_omt.simulate import ScenarioConfig, generate_trial
from sure_omt.spending import make_power_law, parse_sequence_spec

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
PROCEDURES = [{"name": name} for name in RULES]
# the case run wide enough that `simulate._run_stacked` cuts its trials into chunks
WIDE_CASE = "wide"


def _case(seed, n_trials=20, axis=None, values=None):
    config = {"scenario": {"m": 60, "n_trials": n_trials, "seed": seed},
              "procedures": PROCEDURES}
    if axis is not None:
        config["sweep"] = {"axis": axis, "values": values}
    return config


CASES = {
    "none": _case(11),
    "placement": _case(12, axis="placement", values=["B", "E", "BM", "BE", "ME", "Random"]),
    "pi_a": _case(13, axis="pi_a", values=[0.0, 0.3, 0.8]),
    "N": _case(14, axis="N", values=[0, 10, 40]),
    "p3": _case(15, axis="p3", values=[0.2, 0.6]),
    "lambda": _case(16, axis="lambda", values=[0.0, 0.3, 0.7]),
    "h": _case(17, axis="h", values=[1, 10, 100]),
    WIDE_CASE: _case(18, n_trials=400),
}

LAMBDAS = (0.0, 0.5)
GAMMA_PRIMES = {
    "kernel": {"family": "kernel", "h": 10},
    "explicit": {"family": "explicit", "values": [0.5, 0.25, 0.125]},
    "greedy": {"family": "greedy"},
    "power": {"family": "power", "q": 2.0},
    "log": {"family": "log", "q": 2.0},
    "jm": {"family": "jm"},
}


# the case key, not passed to analyze, that sets analyze's default lambda
DEFAULT_LAMBDA = "default_lambda"


def _lambdas(rule):
    """LAMBDAS for an adaptive rule; the others take no lambda and run at 0."""
    return LAMBDAS if rule.adaptive else (0.0,)


def _analyze_case(name, lam, gamma_prime=None):
    config = {"procedure": name}
    if RULES[name].adaptive:
        config["lambda"] = lam
    elif lam:
        # a lambda key on this rule is a config error; the default is not
        config[DEFAULT_LAMBDA] = lam
    if RULES[name].investing:
        config["w0"] = 0.1
    if gamma_prime is not None:
        config["gamma_prime"] = GAMMA_PRIMES[gamma_prime]
    return config


ANALYZE_CASES = {
    f"{name}/{gp}/lambda={lam}" if gp else f"{name}/lambda={lam}": _analyze_case(name, lam, gp)
    for name, rule in RULES.items()
    for gp in (GAMMA_PRIMES if rule.rewarded else [None])
    for lam in LAMBDAS
}
# the analyze case whose trace the plotdata digests are made from
PLOT_CASE = "rho-alord/power/lambda=0.5"
TRANSFORMS = ("raw", "loglog")


STREAM_STEPS = 5000  # past step 3073: the reward sums are rebuilt at 1025 and 3073
STREAM_SEED = 20232
STREAM_CASES = {
    f"{name}/{gp}/lambda={lam}": (name, gp, lam)
    for name, rule in RULES.items() if rule.rewarded
    for gp in ("power", "log", "jm")
    for lam in _lambdas(rule)
}


def write_tables(path, rows: int = 300, seed: int = 20231) -> None:
    """A table CSV of ``rows`` seeded 2x2 tables with group sizes 10-500,
    every 25th row two groups of 500; about 30% of the rows raise group A's
    success rate by 0.25."""
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "a", "b", "c", "d"])
        for i in range(rows):
            r1, r2 = (500, 500) if i % 25 == 0 else (rng.randint(10, 500), rng.randint(10, 500))
            p0 = rng.uniform(0.01, 0.5)
            pa = min(p0 + 0.25, 0.95) if rng.random() < 0.3 else p0
            a = sum(rng.random() < pa for _ in range(r1))
            c = sum(rng.random() < p0 for _ in range(r2))
            writer.writerow([f"r{i}", a, r1 - a, c, r2 - c])


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")


def simulate_digests(case: dict) -> dict[str, str]:
    """The sha256 of the CSV and the JSON that ``sure-omt simulate`` writes for ``case``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "config.json").write_text(json.dumps(case))
        _run(["simulate", "--config", str(root / "config.json"),
              "--out", str(root / "report.csv"), "--out-json", str(root / "report.json")])
        return {kind: _sha(root / f"report.{kind}") for kind in ("csv", "json")}


def _analyze(config: dict, tables, root: pathlib.Path) -> None:
    config = dict(config)
    defaults = dict(cli.ANALYZE_DEFAULTS)
    if DEFAULT_LAMBDA in config:
        defaults["lambda"] = config.pop(DEFAULT_LAMBDA)
    (root / "config.json").write_text(json.dumps(config))
    with mock.patch.object(cli, "ANALYZE_DEFAULTS", defaults):
        _run(["analyze", "--config", str(root / "config.json"), "--input", str(tables),
              "--out-trace", str(root / "trace.csv"), "--out-summary", str(root / "summary.json")])


def analyze_digests(config: dict, tables) -> dict[str, str]:
    """The sha256 of the trace and the summary that ``sure-omt analyze`` writes
    for ``config`` over the table CSV ``tables``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _analyze(config, tables, root)
        return {"trace": _sha(root / "trace.csv"), "summary": _sha(root / "summary.json")}


def plotdata_digests(tables) -> dict[str, str]:
    """The sha256 of ``sure-omt plotdata`` of PLOT_CASE's trace, per transform."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _analyze(ANALYZE_CASES[PLOT_CASE], tables, root)
        for transform in TRANSFORMS:
            _run(["plotdata", "--trace", str(root / "trace.csv"), "--transform", transform,
                  "--out", str(root / f"{transform}.csv")])
        return {transform: _sha(root / f"{transform}.csv") for transform in TRANSFORMS}


def stream_trial():
    """The seeded STREAM_STEPS-step stream of (p-value, null bound) pairs."""
    trial = generate_trial(ScenarioConfig(m=STREAM_STEPS, seed=STREAM_SEED, n_trials=1), 0)
    return list(zip(trial.pvals, trial.bounds))


def stream_digests(case: tuple, stream) -> dict[str, str]:
    """The sha256 of the alphas, spent levels and reject flags of the
    procedure ``case`` (name, gamma' key, lambda) run over ``stream``."""
    name, gp, lam = case
    proc = make_procedure(name, ProcedureConfig(
        alpha=0.2, gamma=make_power_law(1.6), lam=lam, w0=0.1 if RULES[name].investing else None,
        gamma_prime=parse_sequence_spec(GAMMA_PRIMES[gp])))
    proc.run(stream)
    return {kind: hashlib.sha256(np.array(getattr(proc, kind)).tobytes()).hexdigest()
            for kind in ("alphas", "spent", "rejects")}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tables = pathlib.Path(tmp) / "tables.csv"
        write_tables(tables)
        golden = {"versions": versions(),
                  "simulate": {name: simulate_digests(case) for name, case in CASES.items()},
                  "analyze": {name: analyze_digests(case, tables)
                              for name, case in ANALYZE_CASES.items()},
                  "plotdata": plotdata_digests(tables)}
    stream = stream_trial()
    golden["stream"] = {name: stream_digests(case, stream) for name, case in STREAM_CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
