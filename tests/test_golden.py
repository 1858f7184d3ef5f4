"""``sure-omt`` keeps its recorded output bits (see golden.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sure_omt
from sure_omt.procedures import RULES
from sure_omt.simulate import BATCH_COLUMNS

from golden import (ANALYZE_CASES, CASES, GOLDEN_PATH, STREAM_CASES, WIDE_CASE,
                    analyze_digests, plotdata_digests, simulate_digests, stream_digests,
                    stream_trial, versions, write_tables)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _check(what: str, want: dict, got: dict) -> None:
    differ = [kind for kind in want if got[kind] != want[kind]]
    assert not differ, (f"{what}: {', '.join(differ)} differ from the golden digest "
                        f"(recorded with {GOLDEN['versions']}, running {versions()})")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "tables.csv"
    write_tables(path)
    return path


def test_golden_covers_every_case():
    assert sorted(GOLDEN["simulate"]) == sorted(CASES)
    assert sorted(GOLDEN["analyze"]) == sorted(ANALYZE_CASES)
    assert sorted(GOLDEN["stream"]) == sorted(STREAM_CASES)


def test_wide_case_spans_several_chunks():
    """Its trials do not fit in one of the simulator's chunks of trials, which
    holds BATCH_COLUMNS columns of the procedures stepped through time (the
    investing and rewarded ones)."""
    case = CASES[WIDE_CASE]
    stepped = [entry for entry in case["procedures"]
               if RULES[entry["name"]].investing or RULES[entry["name"]].rewarded]
    assert 0 < len(stepped) < len(case["procedures"])
    assert case["scenario"]["n_trials"] > BATCH_COLUMNS // len(stepped)


def test_tables_hold_groups_of_10_to_500(tables):
    rows = [list(map(int, line.split(",")[1:])) for line in tables.read_text().splitlines()[1:]]
    sizes = [n for a, b, c, d in rows for n in (a + b, c + d)]
    assert len(rows) == 300 and min(sizes) >= 10 and max(sizes) == 500


@pytest.fixture(scope="module")
def stream():
    return stream_trial()


@pytest.mark.parametrize("case", CASES)
def test_simulate_digests(case):
    _check(f"simulate case {case!r}", GOLDEN["simulate"][case], simulate_digests(CASES[case]))


@pytest.mark.parametrize("case", ANALYZE_CASES)
def test_analyze_digests(case, tables):
    _check(f"analyze case {case!r}", GOLDEN["analyze"][case],
           analyze_digests(ANALYZE_CASES[case], tables))


def test_plotdata_digests(tables):
    _check("plotdata", GOLDEN["plotdata"], plotdata_digests(tables))


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_digests(case, stream):
    _check(f"stream case {case!r}", GOLDEN["stream"][case],
           stream_digests(STREAM_CASES[case], stream))


# a few cases of each kind, recomputed with numpy's SIMD dispatch off: a
# simulate case, analyze with a power, log and jm gamma', and a power stream
DISPATCH_CASES = {
    "simulate": ["none"],
    "analyze": ["rho-ob/power/lambda=0.0", "rho-lord/log/lambda=0.0", "rho-aob/jm/lambda=0.5"],
    "stream": ["rho-ob/power/lambda=0.0"],
}
DISPATCH_SCRIPT = """
import json, pathlib, sys, tempfile
import numpy._core._multiarray_umath as umath
import golden
cases = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as tmp:
    tables = pathlib.Path(tmp) / "tables.csv"
    golden.write_tables(tables)
    out = {"simulate": {c: golden.simulate_digests(golden.CASES[c]) for c in cases["simulate"]},
           "analyze": {c: golden.analyze_digests(golden.ANALYZE_CASES[c], tables)
                       for c in cases["analyze"]}}
stream = golden.stream_trial()
out["stream"] = {c: golden.stream_digests(golden.STREAM_CASES[c], stream) for c in cases["stream"]}
out["dispatched"] = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
print(json.dumps(out))
"""


def test_digests_do_not_depend_on_numpy_simd_dispatch():
    """numpy picks a SIMD kernel for the CPU it runs on, and its pow and exp
    kernels round differently from each other and from math.pow and math.exp.
    With every dispatched feature disabled (the baseline cannot be), the
    digests are the recorded ones: no output reads those kernels."""
    features = np._core._multiarray_umath.__cpu_dispatch__
    path = os.pathsep.join([str(Path(sure_omt.__file__).parents[1]), str(Path(__file__).parent)])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features), "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", DISPATCH_SCRIPT, json.dumps(DISPATCH_CASES)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got.pop("dispatched") == []
    for kind, cases in got.items():
        for case, digests in cases.items():
            _check(f"{kind} case {case!r} without SIMD dispatch", GOLDEN[kind][case], digests)
