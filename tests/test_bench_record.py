"""The summaries tools/bench_record.py writes into a BENCH file, on made-up runs."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

METRICS = {"stream_steps_per_s": {"name": "stream_steps_per_s", "better": "higher",
                                  "bound": 0.25},
           "step_p50_us": {"name": "step_p50_us", "better": "lower", "bound": 0.1}}


def _run(steps, p50, cal_median, exit_code=0):
    result = {"metrics": {"stream_steps_per_s": {"value": steps, "unit": "1/s"},
                          "step_p50_us": {"value": p50, "unit": "us"}}}
    cal = {"median": cal_median, "min": cal_median - 1.0, "max": cal_median + 2.0,
           "reference": 6.0}
    return {"exit_code": exit_code, "run": {"host_cal_ms": cal}, "result": result}


def test_summary_takes_medians_and_the_calibration_spread():
    runs = [_run(100.0, 4.0, 8.0), _run(120.0, 3.0, 9.0), _run(90.0, 5.0, 7.0, exit_code=1)]
    got = bench_record.summary(runs, METRICS)
    assert got["medians"] == {"stream_steps_per_s": 100.0, "step_p50_us": 4.0}
    assert got["quartiles"] == {"stream_steps_per_s": [95.0, 100.0, 110.0],
                                "step_p50_us": [3.5, 4.0, 4.5]}
    assert got["calibration_ms"] == {"min": 6.0, "median": 8.0, "max": 11.0, "reference": 6.0}
    assert got["failed_runs"] == 1


def test_compare_counts_the_pairs_head_wins_in_each_metrics_direction():
    base = [_run(100.0, 4.0, 8.0), _run(110.0, 4.5, 8.0), _run(105.0, 3.0, 8.0)]
    head = [_run(150.0, 3.0, 8.0), _run(100.0, 3.5, 8.0), _run(140.0, 3.5, 8.0)]
    got = bench_record.compare(base, head, METRICS)
    assert got["stream_steps_per_s"] == {"base": 105.0, "head": 140.0, "ratio": 140.0 / 105.0,
                                         "head_better_pairs": "2/3", "median_gap": 35.0,
                                         "base_iqr": 5.0, "claim_met": False, "bound": 0.25,
                                         "worse_by": -35.0 / 105.0, "within_bound": True}
    assert got["step_p50_us"]["head_better_pairs"] == "2/3"
    assert got["step_p50_us"]["ratio"] == 3.5 / 4.0
    # a run without a result line counts in no pair
    assert bench_record.compare(base, [{"result": None}] * 3, METRICS) == {}


@pytest.mark.parametrize("values", [[7.0], [3.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    [0.5, 9.0, 2.25, 4.0, 8.0, 1.0, 3.5, 6.0, 7.0, 2.0]])
def test_quartiles_are_numpys_default_percentiles(values):
    assert bench_record.quartiles(values) == pytest.approx(
        np.percentile(values, [25, 50, 75]).tolist(), rel=1e-15)


def test_the_claim_needs_nine_pairs_in_ten_and_a_median_gap_past_the_base_iqr():
    """A gain is claimed when head is better in at least 9 of 10 pairs and its
    median beats the base median by more than the base runs' quartile distance."""
    base = [_run(100.0 + i, 4.0, 8.0) for i in range(10)]  # quartiles 102.25 and 106.75
    clear = [_run(110.0 + i, 4.0, 8.0) for i in range(10)]
    got = bench_record.compare(base, clear, METRICS)["stream_steps_per_s"]
    assert (got["median_gap"], got["base_iqr"], got["claim_met"]) == (10.0, 4.5, True)
    # better in every pair, but by less than the base's spread
    close = [_run(104.0 + i, 4.0, 8.0) for i in range(10)]
    got = bench_record.compare(base, close, METRICS)["stream_steps_per_s"]
    assert (got["median_gap"], got["claim_met"]) == (4.0, False)
    # far better in the median, yet worse in two pairs of ten
    mixed = [_run(v, 4.0, 8.0) for v in [90.0, 90.0] + [120.0] * 8]
    got = bench_record.compare(base, mixed, METRICS)["stream_steps_per_s"]
    assert (got["head_better_pairs"], got["claim_met"]) == ("8/10", False)
    # a lower-is-better metric gains when head is lower; equal medians claim nothing
    got = bench_record.compare(base, clear, METRICS)["step_p50_us"]
    assert (got["median_gap"], got["base_iqr"], got["claim_met"]) == (0.0, 0.0, False)
    faster = [_run(100.0, 3.0, 8.0) for _ in range(10)]
    assert bench_record.compare(base, faster, METRICS)["step_p50_us"]["claim_met"]


def test_a_metric_worse_by_more_than_its_bound_is_named_in_the_closing_line(
        capsys, monkeypatch, tmp_path):
    """Head 20% slower in steps/s is within that metric's bound of 25%; a 25%
    higher p50 is outside its bound of 10%.  Each metric records how much
    worse head is, and the closing line names the workload and metric outside
    its bound, and only that one."""
    base = [_run(100.0, 4.0, 8.0) for _ in range(4)]
    head = [_run(80.0, 5.0, 8.0) for _ in range(4)]
    got = bench_record.compare(base, head, METRICS)
    steps, p50 = got["stream_steps_per_s"], got["step_p50_us"]
    assert (steps["bound"], steps["worse_by"], steps["within_bound"]) == (0.25, 0.2, True)
    assert (p50["bound"], p50["worse_by"], p50["within_bound"]) == (0.1, 0.25, False)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "bench/run.py"], "run_seconds": 5, "workloads": [{"name": "w1"}],
        "end_to_end": list(METRICS.values())}))
    sides = iter([base[0], head[0], head[1], base[1]])
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "abc123")
    monkeypatch.setattr(bench_record, "export", lambda rev, tree: tree)
    monkeypatch.setattr(bench_record, "bench_once", lambda tree, command, workload: next(sides))
    assert bench_record.main(["--label", "t", "--base", "HEAD~1", "--runs", "2"]) == 0
    closing = capsys.readouterr().out.strip().splitlines()[-1]
    assert closing.endswith("0 run(s) failed; outside bound: w1 step_p50_us")


@pytest.mark.parametrize("seed", [None, 2])
def test_the_seed_is_passed_to_every_run_and_recorded(seed, monkeypatch, tmp_path):
    """Every run gets ``--seed`` (1 unless given), and the BENCH file records it
    with each side's medians and quartiles of every workload."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "bench/run.py"], "run_seconds": 5,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": list(METRICS.values())}))
    commands = []

    def bench_once(tree, command, workload):
        commands.append(command)
        return _run(100.0 + len(commands), 4.0, 8.0)

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "abc123")
    monkeypatch.setattr(bench_record, "export", lambda rev, tree: tree)
    monkeypatch.setattr(bench_record, "bench_once", bench_once)
    args = ["--label", "t", "--base", "HEAD~1", "--runs", "2"]
    assert bench_record.main(args + ([] if seed is None else ["--seed", str(seed)])) == 0
    want = "1" if seed is None else str(seed)
    assert len(commands) == 8 and all(c[c.index("--seed") + 1] == want for c in commands)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["seed"] == int(want)
    for entry in record["workloads"].values():
        for side in ("base", "head"):
            assert set(entry[side]["quartiles"]) == set(METRICS)
        assert entry["compare"]["stream_steps_per_s"]["head_better_pairs"] == "1/2"


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_fewer_than_one_run_is_a_usage_error(runs, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)  # where a BENCH file would go
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(["--label", "none", "--runs", runs])
    assert exit_info.value.code == 2
    assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
