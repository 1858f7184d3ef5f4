"""The summaries tools/bench_record.py writes into a BENCH file, on made-up runs."""

import importlib.util
import pathlib

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

METRICS = {"stream_steps_per_s": "higher", "step_p50_us": "lower"}


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
    assert got["calibration_ms"] == {"min": 6.0, "median": 8.0, "max": 11.0, "reference": 6.0}
    assert got["failed_runs"] == 1


def test_compare_counts_the_pairs_head_wins_in_each_metrics_direction():
    base = [_run(100.0, 4.0, 8.0), _run(110.0, 4.5, 8.0), _run(105.0, 3.0, 8.0)]
    head = [_run(150.0, 3.0, 8.0), _run(100.0, 3.5, 8.0), _run(140.0, 3.5, 8.0)]
    got = bench_record.compare(base, head, METRICS)
    assert got["stream_steps_per_s"] == {"base": 105.0, "head": 140.0, "ratio": 140.0 / 105.0,
                                         "head_better_pairs": "2/3"}
    assert got["step_p50_us"]["head_better_pairs"] == "2/3"
    assert got["step_p50_us"]["ratio"] == 3.5 / 4.0
    # a run without a result line counts in no pair
    assert bench_record.compare(base, [{"result": None}] * 3, METRICS) == {}


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_fewer_than_one_run_is_a_usage_error(runs, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)  # where a BENCH file would go
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(["--label", "none", "--runs", runs])
    assert exit_info.value.code == 2
    assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
