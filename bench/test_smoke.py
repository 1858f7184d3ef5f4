"""Tests of the benchmark itself: python -m pytest -q bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import Tracer  # noqa: E402


def test_smoke_mode_checks_every_metric_and_agreement():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 3, proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.spans = [["root", 0, 100, -1, "r"], ["a", 10, 30, 0, "r"],
                ["b", 40, 90, 0, "r"], ["c", 50, 60, 2, "r"]]
    assert tr.self_times() == [30, 20, 40, 10]
