#!/usr/bin/env python3
"""Record benchmark runs in a BENCH_<label>.json file.

    python3 tools/bench_record.py --label baseline --rev 3238c60
    python3 tools/bench_record.py --label next --base 3238c60 --rev HEAD --runs 10
    python3 tools/bench_record.py --label next-seed2 --base 3238c60 --runs 10 --seed 2

Each side is a committed revision, exported with ``git archive`` into a
scratch directory, and measured by that revision's own ``bench/run.py``,
unchanged (``--seed`` as given, 1 by default, ``--trace 0`` and
``BENCHMARK.json``'s ``run_seconds``).
Every workload of ``BENCHMARK.json`` runs ``--runs`` times; with ``--base``,
in ``--runs`` pairs, the two sides alternating (base first in even pairs,
head first in odd ones).

The file, ``BENCH_<label>.json`` at the root of the checkout, keeps for
each run the run record (``{"run": ...}``) and the result line that
``bench/run.py`` printed, and per side ("head" for ``--rev``, "base" for
``--base``) and workload the median and the quartiles of each end-to-end
metric and the spread of the host calibration loop.  A pair run adds, for
each metric, the ratio of the medians (head / base), the number of pairs in
which head was better, and the gap of the medians in the metric's better
direction against the interquartile range of the base runs.  A gain is
claimed when ``claim_met``: head was better in at least 9 of 10 pairs and the
median gap exceeds the base's interquartile range.  Each metric also gets
``BENCHMARK.json``'s ``bound`` and ``worse_by``, the relative change of the
medians in the metric's worse direction (negative when head is better);
``within_bound`` is false when head is worse by more than the bound, and the
closing line names every such workload and metric.  A metric is
``unresolved`` when the base runs spread wider than its bound (their
interquartile range over their median exceeds it), unless every head run is
better than every base run: such a pair cannot tell a change within the
bound from noise, and the closing line names it after the metrics outside
their bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, tree: Path) -> Path:
    """The files of ``rev``, written to the new directory ``tree``."""
    tar = tree.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(tar), rev)
    with tarfile.open(tar) as fh:
        fh.extractall(tree, filter="data")
    return tree


def bench_once(tree: Path, command: list, workload: str) -> dict:
    """One run of ``command`` on ``workload``: its run record, result line and exit code."""
    proc = subprocess.run([sys.executable, *command[1:], "--workload", workload],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(line)["run"] for line in lines if line.startswith('{"run"')), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": proc.returncode, "run": record, "result": result,
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def metric(run: dict, name: str) -> float | None:
    m = (run["result"] or {}).get("metrics", {}).get(name)
    return None if m is None else m["value"]


def quartiles(values: list) -> list:
    """[q1, median, q3] of the values, each quartile interpolated between the
    two nearest values in sorted order (numpy's default percentile)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(runs: list, metrics: dict) -> dict:
    """The median and the quartiles of each metric over the runs, and the
    calibration spread."""
    cals = [r["run"]["host_cal_ms"] for r in runs if r["run"] and r["run"]["host_cal_ms"]]
    out = {"medians": {}, "quartiles": {}, "failed_runs": sum(r["exit_code"] != 0 for r in runs)}
    for name in metrics:
        values = [v for r in runs if (v := metric(r, name)) is not None]
        if values:
            out["medians"][name] = statistics.median(values)
            out["quartiles"][name] = quartiles(values)
    if cals:
        out["calibration_ms"] = {"min": min(c["min"] for c in cals),
                                 "median": statistics.median(c["median"] for c in cals),
                                 "max": max(c["max"] for c in cals),
                                 "reference": cals[0]["reference"]}
    return out


def compare(base: list, head: list, metrics: dict) -> dict:
    """Per metric (``metrics`` maps a name to its ``end_to_end`` entry): both
    medians, head / base, the pairs in which head was better, the median gap
    (positive when head is better) against the base runs' interquartile
    range, whether that meets the claim rule, how much worse head is against
    the metric's bound, and whether the base spread leaves it unresolved."""
    out = {}
    for name, spec in metrics.items():
        better, bound = spec["better"], spec["bound"]
        pairs = [(b, h) for rb, rh in zip(base, head)
                 if (b := metric(rb, name)) is not None and (h := metric(rh, name)) is not None]
        if not pairs:
            continue
        bases, heads = zip(*pairs)
        b_med, h_med = statistics.median(bases), statistics.median(heads)
        wins = sum((h > b) if better == "higher" else (h < b) for b, h in pairs)
        q1, _, q3 = quartiles(bases)
        gap = h_med - b_med if better == "higher" else b_med - h_med
        worse_by = -gap / b_med if b_med else None
        apart = (min(heads) > max(bases) if better == "higher"
                 else max(heads) < min(bases))
        out[name] = {"base": b_med, "head": h_med, "ratio": h_med / b_med if b_med else None,
                     "head_better_pairs": f"{wins}/{len(pairs)}", "median_gap": gap,
                     "base_iqr": q3 - q1,
                     "claim_met": 10 * wins >= 9 * len(pairs) and gap > q3 - q1,
                     "bound": bound, "worse_by": worse_by,
                     "within_bound": gap >= 0.0 if worse_by is None else worse_by <= bound,
                     "unresolved": bool(b_med) and (q3 - q1) / abs(b_med) > bound
                     and not apart}
    return out


def named(record: dict, flag: str, value: bool) -> list[str]:
    """``workload metric`` for each compared metric whose ``flag`` is ``value``."""
    return [f"{workload} {name}" for workload, entry in record["workloads"].items()
            for name, c in entry.get("compare", {}).items() if c[flag] is value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--rev", default="HEAD", help="the revision measured (default HEAD)")
    parser.add_argument("--base", help="a revision to measure in pairs against --rev")
    parser.add_argument("--runs", type=int, default=3, help="runs per workload and side")
    parser.add_argument("--seed", type=int, default=1, help="bench/run.py's seed (default 1)")
    opts = parser.parse_args(argv)
    if opts.runs < 1:
        parser.error(f"--runs must be at least 1, got {opts.runs}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"head": git("rev-parse", opts.rev)}
    if opts.base:
        sides = {"base": git("rev-parse", opts.base), **sides}
    record = {"label": opts.label, "git_sha": sides["head"], "seed": opts.seed,
              "command": [*spec["command"], "--seed", str(opts.seed), "--seconds",
                          str(spec["run_seconds"]), "--trace", "0"],
              "python": platform.python_version(), "machine": platform.machine(),
              "workloads": {}}
    if opts.base:
        record["base_sha"] = sides["base"]
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {side: export(sha, Path(tmp) / side) for side, sha in sides.items()}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in sides}
            for i in range(opts.runs):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    run = bench_once(trees[side], record["command"], workload)
                    runs[side].append(run)
                    print(f"{workload} {side} {i}: exit {run['exit_code']} "
                          f"{ {k: metric(run, k) for k in metrics} }", file=sys.stderr)
            entry = {side: {"runs": runs[side], **summary(runs[side], metrics)}
                     for side in sides}
            if opts.base:
                entry["compare"] = compare(runs["base"], runs["head"], metrics)
            record["workloads"][workload] = entry
    out = ROOT / f"BENCH_{opts.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(side["failed_runs"] for entry in record["workloads"].values()
                 for name, side in entry.items() if name != "compare")
    closing = f"wrote {out}; {failed} run(s) failed"
    if opts.base:
        closing += "; outside bound: " + (", ".join(named(record, "within_bound", False))
                                          or "none")
        unresolved = named(record, "unresolved", True)
        if unresolved:
            closing += "; unresolved: " + ", ".join(unresolved)
    print(closing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
