#!/usr/bin/env python3
"""The sure-omt benchmark.

    python3 bench/run.py --workload mc-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each workload (see workloads.py and README.md)
runs in rounds, each round a fresh single-threaded worker process, until
``--seconds`` of rounds have passed.  With ``--trace 0`` it prints every
end-to-end metric, with ``--trace 1`` every per-layer metric of the traced
replay and the tracing overhead.  Outputs are checked in every run; the
last line of standard output is the JSON result, and the exit code is 0
only when every check passed and no operation failed.

``--smoke`` runs all workloads at tiny sizes, in both modes, and checks
that every metric named in BENCHMARK.json appears with its unit and that
the traced and untraced outputs agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_NS
from workloads import PATHS, PROCEDURES, WORKLOADS, operation_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_work"

WORKER_TIMEOUT_S = 100  # keeps a run with one hung round under 180 s
# minimum rounds per run, whatever --seconds says
MIN_ROUNDS = {"full": {"plain": 3, "traced": 2}, "smoke": {"plain": 1, "traced": 1}}
# set-up-only processes are added until the run has this many set-up samples
MIN_SETUP_SAMPLES = {"full": 7, "smoke": 2}

END_TO_END = {
    "mc_trials_per_s": "1/s",
    "analyze_rows_per_s": "1/s",
    "stream_steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "discrete.fisher_calls": "count",
    "discrete.fisher_us_p50": "us",
    "discrete.fisher_us_p99": "us",
    "discrete.fisher_busy_s": "s",
    "discrete.new_margin_share": "ratio",
    "core.bound_build_us_p50": "us",
    "core.cdf_eval_ns_p50": "ns",
    "spending.build_ms": "ms",
    "spending.gamma_lookup_ns": "ns",
    **{f"procedures.{name}.{metric}": unit for name in PROCEDURES
       for metric, unit in (("step_us_p50", "us"), ("step_us_p99", "us"),
                            ("step_growth", "ratio"))},
    "procedures.build_us": "us",
    "procedures.audit_ms": "ms",
    "procedures.rejections": "count",
    "simulate.generate_trial_ms_p50": "ms",
    "simulate.self_share": "ratio",
    "evaluate.estimate_ms": "ms",
    "evaluate.report_write_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


class WorkerFailed(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workdir: Path, round_no: int, mode: str, opts, gate: bool = False) -> dict:
    out = workdir / f"result-{round_no}.json"
    cmd = [sys.executable, str(WORKER), "--workload", opts.workload, "--seed", str(opts.seed),
           "--size", opts.size, "--mode", mode, "--round", str(round_no),
           "--gate", str(int(gate)), "--workdir", str(workdir), "--out", str(out),
           "--spans", str(WORK / "spans" / f"{opts.workload}-s{opts.seed}-r{round_no}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"round {round_no} ({mode}) timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"round {round_no} ({mode}) exited with code {proc.returncode}")
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        raise WorkerFailed(f"round {round_no} ({mode}) left no result: {exc}")


def run_rounds(opts) -> dict:
    """Run rounds until --seconds have passed; returns the raw round results."""
    mins = MIN_ROUNDS[opts.size]
    kinds = ["plain", "traced"] if opts.trace else ["plain"]
    rounds: dict[str, list] = {"plain": [], "traced": [], "setup": []}
    took: dict[str, list] = {"plain": [], "traced": []}
    failure = None
    workdir = WORK / f"{opts.workload}-s{opts.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if opts.trace:
        # keep the spans of the latest traced run only
        shutil.rmtree(WORK / "spans", ignore_errors=True)
        (WORK / "spans").mkdir()
    start = time.monotonic()
    try:
        round_no = 0
        while True:
            kind = kinds[round_no % len(kinds)]
            enough = all(len(rounds[k]) >= mins[k] for k in kinds)
            estimate = statistics.median(took[kind]) if took[kind] else 0.0
            if enough and time.monotonic() - start + estimate > opts.seconds:
                break
            t0 = time.monotonic()
            try:
                rounds[kind].append(run_worker(workdir, round_no, kind, opts, gate=round_no == 0))
            except WorkerFailed as exc:
                failure = str(exc)
                break
            took[kind].append(time.monotonic() - t0)
            round_no += 1
        measured_s = time.monotonic() - start
        n_setup = len(rounds["plain"]) + len(rounds["traced"])
        while failure is None and n_setup < MIN_SETUP_SAMPLES[opts.size]:
            try:
                rounds["setup"].append(run_worker(workdir, round_no, "setup", opts))
            except WorkerFailed as exc:
                failure = str(exc)
            round_no += 1
            n_setup += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"rounds": rounds, "failure": failure, "measured_s": measured_s}


def ok_values(rounds, path: str):
    """Per-round samples of a path, skipping rounds where it failed."""
    return [r["paths"][path] for r in rounds if r["paths"][path]["failed"] == 0]


def end_to_end(plain: list, setup_ns: list) -> tuple[dict, dict]:
    metrics, samples = {}, {}

    def rate(name, path, key):
        vals = [p["attempted"] / (p[key] / 1e9) for p in ok_values(plain, path)]
        if vals:
            metrics[name] = statistics.median(vals)
            samples[name] = f"median of {len(vals)} rounds"

    rate("mc_trials_per_s", "sim", "norm_ns")
    rate("analyze_rows_per_s", "analyze", "norm_ns")
    rate("stream_steps_per_s", "stream", "busy_norm_ns")
    # Step percentiles: each procedure's percentile within a round, the median
    # over rounds, then the mean over the 9 procedures. Pooled over procedures,
    # the rewarded rules' slow steps and the base rules' fast ones make a
    # bimodal mix whose median jumps between the two modes; the median over
    # rounds drops the rounds that a burst of host noise hit.
    stepped = [r for r in plain if r["paths"]["stream"]["failed"] == 0]
    if stepped:
        for name, q in (("step_p50_us", 0.50), ("step_p99_us", 0.99)):
            metrics[name] = statistics.fmean(
                statistics.median(percentile(r["step_ns"][proc], q) for r in stepped)
                for proc in PROCEDURES) / 1e3
            samples[name] = (f"mean over 9 procedures of the median over {len(stepped)} rounds "
                             f"of {len(stepped[0]['step_ns']['ob'])} steps each")
    metrics["setup_s"] = statistics.median(setup_ns) / 1e9
    samples["setup_s"] = f"median of {len(setup_ns)} processes"
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] for r in plain) / 1024
    samples["peak_rss_mb"] = f"median of {len(plain)} rounds"
    return metrics, samples


def raw_medians(plain: list, setup_ns: list) -> dict:
    """Unscaled wall-clock medians, for reference next to the scaled metrics."""
    out = {f"{path}_ops_per_s": statistics.median(p["attempted"] / (p["ns"] / 1e9) for p in vals)
           for path in PATHS if (vals := ok_values(plain, path))}
    if setup_ns:
        out["setup_s"] = statistics.median(setup_ns) / 1e9
    return out


def per_layer(traced: list, plain: list) -> tuple[dict, dict]:
    layers = [r["layers"] for r in traced]
    n = len(layers)
    metrics, samples = {}, {}

    def pooled(name, key, q, scale):
        vals = [v for lay in layers for v in lay[key]]
        metrics[name] = percentile(vals, q) / scale
        samples[name] = f"{len(vals)} calls"

    def median(name, values, scale=1.0):
        metrics[name] = statistics.median(values) / scale
        samples[name] = f"median of {len(values)} rounds"

    median("discrete.fisher_calls", [len(lay["discrete.fisher_ns"]) for lay in layers])
    pooled("discrete.fisher_us_p50", "discrete.fisher_ns", 0.50, 1e3)
    pooled("discrete.fisher_us_p99", "discrete.fisher_ns", 0.99, 1e3)
    median("discrete.fisher_busy_s", [sum(lay["discrete.fisher_ns"]) for lay in layers], 1e9)
    median("discrete.new_margin_share", [lay["discrete.new_margin_share"] for lay in layers])
    pooled("core.bound_build_us_p50", "core.bound_build_ns", 0.50, 1e3)
    pooled("core.cdf_eval_ns_p50", "core.cdf_eval_ns", 0.50, 1.0)
    median("spending.build_ms", [lay["spending.build_ns"] for lay in layers], 1e6)
    median("spending.gamma_lookup_ns", [lay["spending.gamma_lookup_ns"] for lay in layers])
    for name in PROCEDURES:
        steps = [v for lay in layers for v in lay["procedures"][name]["step_ns"]]
        growth = [g for lay in layers for g in lay["procedures"][name]["growth"]]
        prefix = f"procedures.{name}"
        metrics[f"{prefix}.step_us_p50"] = percentile(steps, 0.50) / 1e3
        metrics[f"{prefix}.step_us_p99"] = percentile(steps, 0.99) / 1e3
        samples[f"{prefix}.step_us_p50"] = samples[f"{prefix}.step_us_p99"] = f"{len(steps)} steps"
        median(f"{prefix}.step_growth", growth)
        samples[f"{prefix}.step_growth"] = f"median of {len(growth)} streams"
    pooled("procedures.build_us", "procedures.build_ns", 0.50, 1e3)
    pooled("procedures.audit_ms", "procedures.audit_ns", 0.50, 1e6)
    median("procedures.rejections", [lay["procedures.rejections"] for lay in layers])
    pooled("simulate.generate_trial_ms_p50", "simulate.generate_trial_ns", 0.50, 1e6)
    median("simulate.self_share", [lay["simulate.self_share"] for lay in layers])
    median("evaluate.estimate_ms", [lay["evaluate.estimate_ns"] for lay in layers], 1e6)
    median("evaluate.report_write_ms", [lay["evaluate.report_write_ns"] for lay in layers], 1e6)
    # cli.main's own time: the untraced analyze wall time minus the layer
    # time the traced replay of the same rows spends inside it
    analyzed = ok_values(plain, "analyze")
    complete = [r for r in plain if all(p["failed"] == 0 for p in r["paths"].values())]
    if analyzed and complete:
        cli_ns = statistics.median(p["norm_ns"] for p in analyzed)
        metrics["cli.self_s"] = (cli_ns - statistics.median(lay["cli.layer_ns"] for lay in layers)) / 1e9
        samples["cli.self_s"] = f"{len(analyzed)} untraced and {n} traced rounds"
        plain_wall = statistics.median(sum(r["paths"][p]["norm_ns"] for p in PATHS) for r in complete)
        traced_wall = statistics.median(sum(lay["wall_ns"].values()) for lay in layers)
        metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0
        samples["trace.overhead_share"] = f"{len(complete)} untraced and {n} traced rounds"
    return metrics, samples


def check_outputs(rounds: list) -> dict:
    """Gates of every round, plus: every round produced the same outputs."""
    gates: dict[str, list] = {}
    for r in rounds:
        for name, (ok, detail) in r.get("gates", {}).items():
            if gates.get(name, [True])[0]:
                gates[name] = [ok, detail]
    for path in PATHS:
        seen = {d for r in rounds for d in r.get("digests", {}).get(path, {}).values()}
        gates[f"{path}_outputs_agree"] = [len(seen) == 1, f"{len(seen)} distinct outputs"]
    return gates


def measure(opts) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    run = run_rounds(opts)
    rounds = run["rounds"]
    plain, traced = rounds["plain"], rounds["traced"]
    done = plain + traced
    attempted = sum(p["attempted"] for r in done for p in r["paths"].values())
    failed = sum(p["failed"] for r in done for p in r["paths"].values())
    gates = check_outputs(done)
    if run["failure"]:
        # the failed round's operations count as attempted and failed
        lost = sum(operation_counts(opts.workload, opts.size).values())
        attempted += lost
        failed += lost
        gates["rounds_complete"] = [False, run["failure"]]
    metrics, samples = {}, {}
    cal = [c for group in rounds.values() for r in group for c in r["cal_ns"]]
    setup_raw = [r["setup_ns"] for group in rounds.values() for r in group]
    if plain and (traced or not opts.trace):
        setup_ns = [r["setup_norm_ns"] for group in rounds.values() for r in group]
        metrics, samples = (per_layer(traced, plain) if opts.trace
                            else end_to_end(plain, setup_ns))
    units = PER_LAYER if opts.trace else END_TO_END
    correct = all(ok for ok, _ in gates.values()) and failed == 0 and set(metrics) == set(units)
    result = {"correct": correct, "attempted": max(1, attempted), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}}
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "size": opts.size, "git_sha": git_sha(),
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "rounds": {k: len(v) for k, v in rounds.items()},
        "host_cal_ms": {"median": statistics.median(cal) / 1e6, "min": min(cal) / 1e6,
                        "max": max(cal) / 1e6, "reference": CAL_REF_NS / 1e6} if cal else None,
        "raw_medians": raw_medians(plain, setup_raw),
        "measured_s": round(run["measured_s"], 3),
        "samples": samples, "gates": gates,
    }
    return result, record


def print_run(result: dict, record: dict) -> None:
    print(json.dumps({"run": record}))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {record['samples'].get(name, '')}")
    for name, (ok, detail) in record["gates"].items():
        print(f"  gate {name:35s} {'ok' if ok else 'FAILED'} {detail}")


def smoke() -> int:
    """All workloads at tiny sizes, both modes; checks names, units, agreement."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in sorted(WORKLOADS):
        before = len(problems)
        for trace in (0, 1):
            opts = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace,
                                      size="smoke")
            result, record = measure(opts)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            if got != expected[trace]:
                problems.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(expected[trace].items())}")
            if not result["correct"] or result["failed"]:
                bad = {k: v for k, v in record["gates"].items() if not v[0]}
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} gates {bad}")
        print(f"smoke {workload}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"smoke FAILED {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sure-omt benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the output")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "sure_omt" / "__init__.py").is_file():
        print(f"error: no sure_omt package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if opts.smoke:
        return smoke()
    if opts.workload is None:
        parser.error("--workload is required")
    opts.size = "full"
    result, record = measure(opts)
    print_run(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
