"""One round of a benchmark workload, run in a fresh process by run.py.

A round sets up (imports ``sure_omt`` and builds the spending sequences
and procedures, timed as set-up), makes the workload's inputs (untimed),
then runs the three user paths of workloads.py in one of two modes:

* ``plain``: through the public entry points (``cli.main`` for analyze and
  simulate, ``emit_alpha``/``observe`` for the stream), timed without
  tracing; with ``--gate 1`` it also checks the outputs afterwards.
* ``traced``: replays the same work by calling the layer functions
  directly, with a span around each call; the spans are kept in memory
  and written to ``--spans`` when the round ends.

The result is written as JSON to ``--out``.  Every output of a path is
also reduced to a digest, so run.py can check that all rounds, plain and
traced, produced the same bytes.

Run ``python3 bench/run.py --help`` rather than this file.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

from workloads import (ALPHA, ANALYZE_CONFIG, FWER_PROCEDURES, LAM, MIXED_MAX_N,
                       MIXED_MIN_N, MIXED_SIGNAL_SHARE, PROCEDURES, Q,
                       REWARDED_BASE, WORKLOADS, operation_counts, sim_config)

pc = time.perf_counter_ns

SCIPY_SAMPLE_ROWS = 200
SCIPY_REL_TOL = 1e-9
GAMMA_LOOKUPS = 5000
CAL_ITERATIONS = 50_000
# Durations are reported at the host speed where the calibration loop
# takes this long: about its fastest time on the 2.1 GHz Xeon host the
# benchmark was written on.
CAL_REF_NS = 6_000_000
CAL_EVERY_NS = 250_000_000


def _fmt(x: float) -> str:
    return format(x, ".17g")


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = ""

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, pc(), 0, parent, self.run])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = pc()
        self._stack.pop()

    def add(self, name: str, start: int, end: int) -> None:
        """A finished span recorded after the fact, as a child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.run])

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run}) + "\n")


# -- host speed ----------------------------------------------------------------

def calibrate() -> int:
    """Time a fixed pure-Python loop that calls no package code."""
    t0 = pc()
    acc = 0.0
    table = {}
    for i in range(CAL_ITERATIONS):
        acc += (i * 0.5) % 3.0
        table[i & 255] = acc
    return pc() - t0


class HostSpeed:
    """Scale factors from this moment's host speed to the reference speed.

    On a shared host the speed of the same code drifts by a third within
    seconds, and every path of a round drifts together.  Each measured unit
    is therefore bracketed by runs of the calibration loop, and its time is
    scaled by CAL_REF_NS over their mean.
    """

    def __init__(self):
        self.cal_ns: list[int] = []
        self.starts: list[int] = []      # start of each measured unit
        self.factors: list[float] = []   # and its factor
        self.mark()

    def mark(self) -> None:
        """Calibrate now: the next unit starts here."""
        self.cal_ns.append(calibrate())
        self._since = pc()

    def factor(self) -> float:
        """Factor for the unit since the last calibration."""
        before, since = self.cal_ns[-1], self._since
        self.mark()
        f = 2 * CAL_REF_NS / (before + self.cal_ns[-1])
        self.starts.append(since)
        self.factors.append(f)
        return f

    def factor_at(self, t_ns: int) -> float:
        """Factor of the unit that was running at time t_ns."""
        return self.factors[max(0, bisect.bisect_right(self.starts, t_ns) - 1)]


# -- set-up ------------------------------------------------------------------

def setup(reward: str):
    """Import the package and build spending sequences and procedures.

    Returns the procedure configs of the simulate subcommand (kernel gamma')
    and those of the stream path, which differ when ``reward`` is "power".
    """
    t0 = pc()
    import numpy
    import sure_omt
    from sure_omt import cli, evaluate, procedures, simulate, spending
    t1 = pc()
    gamma = spending.make_power_law(Q)
    kernels = {name: spending.make_kernel(100 if name in FWER_PROCEDURES else 10)
               for name in REWARDED_BASE}
    reward_power = spending.make_power_law(Q) if reward == "power" else None
    t2 = pc()

    def configs(rewards):
        return {name: procedures.ProcedureConfig(
                    alpha=ALPHA, gamma=gamma, lam=LAM,
                    w0=None if name in FWER_PROCEDURES else ALPHA / 2,
                    gamma_prime=rewards.get(name))
                for name in PROCEDURES}

    sim_configs = configs(kernels)
    stream_configs = (configs(dict.fromkeys(REWARDED_BASE, reward_power))
                      if reward_power is not None else sim_configs)
    for name in PROCEDURES:
        procedures.make_procedure(name, sim_configs[name])
        procedures.make_procedure(name, stream_configs[name])
    t3 = pc()
    pkg = SimpleNamespace(sure_omt=sure_omt, cli=cli, evaluate=evaluate,
                          procedures=procedures, simulate=simulate, spending=spending,
                          numpy=numpy)
    marks = {"start": t0, "spending": t1, "procedures": t2, "end": t3}
    return pkg, sim_configs, stream_configs, gamma, marks


# -- inputs ------------------------------------------------------------------

def mixed_tables(pkg, seed: int, rows: int) -> list[tuple]:
    """2x2 tables with group sizes in [MIXED_MIN_N, MIXED_MAX_N]; a share
    MIXED_SIGNAL_SHARE of the rows has a raised success rate in group A."""
    np = pkg.numpy
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
    r1 = rng.integers(MIXED_MIN_N, MIXED_MAX_N + 1, size=rows)
    r2 = rng.integers(MIXED_MIN_N, MIXED_MAX_N + 1, size=rows)
    p0 = rng.uniform(0.05, 0.5, size=rows)
    signal = rng.random(rows) < MIXED_SIGNAL_SHARE
    pa = np.where(signal, np.minimum(p0 + 0.25, 0.95), p0)
    a = rng.binomial(r1, pa)
    c = rng.binomial(r2, p0)
    return [(f"m{i}", int(a[i]), int(r1[i] - a[i]), int(c[i]), int(r2[i] - c[i]))
            for i in range(rows)]


def make_inputs(pkg, workload: str, size: str, seed: int):
    """Tables for the analyze path and, when the simulator made them, the
    (p, bound) streams for the stream path (else None: the stream is the
    tables' exact tests)."""
    spec = WORKLOADS[workload][size]
    if "mixed_rows" in spec:
        return mixed_tables(pkg, seed, spec["mixed_rows"]), None
    sim = pkg.simulate
    scenario = sim.ScenarioConfig(**dict(sim_config(workload, size, seed)["scenario"],
                                         m=spec["table_m"]))
    tables, streams = [], []
    for i in range(spec["table_trials"]):
        trial = sim.generate_trial(scenario, i)
        tables.extend((f"{i}-{t + 1}", *tab) for t, tab in enumerate(trial.tables))
        streams.append((trial.pvals, trial.bounds))
    return tables, streams


def tables_stream(pkg, tables) -> list[tuple]:
    fisher = pkg.sure_omt.fisher_two_sided
    table = pkg.sure_omt.ContingencyTable2x2
    results = [fisher(table(a, b, c, d)) for _, a, b, c, d in tables]
    return [([r.p_value for r in results], [r.null_bound for r in results])]


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_tables(path: str, tables) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "a", "b", "c", "d"])
        writer.writerows(tables)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- gates shared by both modes --------------------------------------------------

class Gates:
    """Named pass/fail checks; a check keeps its first failure."""

    def __init__(self):
        self.results: dict[str, list] = {}

    def check(self, name: str, ok: bool, detail="") -> None:
        prev = self.results.get(name)
        if prev is None or prev[0]:
            self.results[name] = [bool(ok), str(detail)]


def audit(pkg, name: str, proc):
    if name in FWER_PROCEDURES:
        return pkg.procedures.audit_fwer_budget(proc)
    return pkg.procedures.audit_mfdr_budget(proc)


def check_stream(gates: Gates, pkg, procs: dict, digest) -> None:
    """Audits pass and every rewarded alpha >= its base alpha, exactly."""
    for name in PROCEDURES:
        rep = audit(pkg, name, procs[name])
        gates.check("stream_audits", rep.ok, f"{name}: worst excess {rep.worst_excess}")
        digest.update(name.encode())
        digest.update(",".join(_fmt(a) for a in procs[name].alphas).encode())
        digest.update(bytes(procs[name].rejects))
    for rho, base in REWARDED_BASE.items():
        bad = [t for t, (x, y) in enumerate(zip(procs[rho].alphas, procs[base].alphas), 1)
               if not x >= y]
        gates.check("stream_domination", not bad,
                    f"{rho} < {base} at t={bad[0]}" if bad else "")


def check_analyze_trace(gates: Gates, trace_path: str, tables) -> None:
    """One trace row per input row, in input order."""
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ok = len(rows) == len(tables) and all(
        r[0] == str(t) and r[1] == tab[0] for t, (r, tab) in enumerate(zip(rows, tables), 1))
    gates.check("analyze_trace_rows", ok, f"{len(rows)} trace rows for {len(tables)} input rows")


def check_scipy(gates: Gates, trace_path: str, tables) -> None:
    """p-values of an evenly spaced subsample match scipy.stats.fisher_exact."""
    try:
        from scipy.stats import fisher_exact
    except ImportError as exc:
        gates.check("analyze_scipy", False, f"scipy unavailable: {exc}")
        return
    with open(trace_path, newline="") as fh:
        pvals = [float(r[2]) for r in list(csv.reader(fh))[1:]]
    stride = max(1, len(tables) // SCIPY_SAMPLE_ROWS)
    worst = 0.0
    for i in range(0, len(tables), stride):
        _, a, b, c, d = tables[i]
        ref = fisher_exact([[a, b], [c, d]], alternative="two-sided").pvalue
        worst = max(worst, abs(pvals[i] - ref) / ref)
    gates.check("analyze_scipy", worst <= SCIPY_REL_TOL, f"worst relative error {worst:.3g}")


# -- plain paths -------------------------------------------------------------------

def quiet_cli(pkg, argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return pkg.cli.main(argv)


def plain_cli(pkg, ctx, out: dict, path: str, argv: list[str]) -> None:
    ctx.speed.mark()
    t0 = pc()
    rc = quiet_cli(pkg, argv)
    out["ns"] = pc() - t0
    out["norm_ns"] = out["ns"] * ctx.speed.factor()
    ctx.gates.check(f"{path}_cli_exit", rc == 0, f"exit code {rc}")
    if rc != 0:
        out["failed"] = out["attempted"]


def plain_analyze(pkg, ctx, out: dict) -> None:
    plain_cli(pkg, ctx, out, "analyze",
              ["analyze", "--config", ctx.analyze_config, "--input", ctx.tables_csv,
               "--out-trace", ctx.path("analyze-cli.csv")])


def plain_sim(pkg, ctx, out: dict) -> None:
    plain_cli(pkg, ctx, out, "sim",
              ["simulate", "--config", ctx.sim_config_path, "--out", ctx.path("sim-cli.csv")])


def plain_stream(pkg, ctx, out: dict) -> None:
    """Each procedure consumes each stream; each step is timed on its own.

    The host speed is calibrated after each procedure and whenever
    CAL_EVERY_NS of stepping have passed, and the steps since the last
    calibration are scaled by that chunk's factor.
    """
    if ctx.streams is None:
        ctx.streams = tables_stream(pkg, ctx.tables)
    make = pkg.procedures.make_procedure
    step_ns = out["step_ns"] = {}
    ctx.stream_procs = [{} for _ in ctx.streams]
    totals = {"ns": 0, "norm_ns": 0.0, "busy_norm_ns": 0.0}
    chunk: list[int] = []
    start = 0

    def flush(scaled: list) -> None:
        took = pc() - start
        f = ctx.speed.factor()
        scaled.extend(d * f for d in chunk)
        totals["ns"] += took
        totals["norm_ns"] += took * f
        totals["busy_norm_ns"] += sum(chunk) * f
        chunk.clear()

    ctx.speed.mark()
    for name in PROCEDURES:
        scaled = step_ns[name] = []
        start = pc()
        for procs, (pvals, bounds) in zip(ctx.stream_procs, ctx.streams):
            proc = procs[name] = make(name, ctx.stream_configs[name])
            emit, observe = proc.emit_alpha, proc.observe
            for p, bound in zip(pvals, bounds):
                t0 = pc()
                emit()
                observe(p, bound)
                t1 = pc()
                chunk.append(t1 - t0)
                if t1 - start > CAL_EVERY_NS:
                    flush(scaled)
                    start = pc()
        flush(scaled)
    out.update(totals)


def run_path(fn, pkg, ctx, path: str, out: dict) -> None:
    """Run one path; an exception fails the path's operations not yet done."""
    try:
        fn(pkg, ctx, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        done = sum(map(len, out.get("step_ns", {}).values()))  # steps of finished chunks
        out["failed"] = out["attempted"] - done
        out["error"] = traceback.format_exc(limit=3)
        ctx.gates.check(f"{path}_no_exception", False, out["error"].splitlines()[-1])


# -- traced replays -----------------------------------------------------------------

def replay_analyze(pkg, ctx, tr: Tracer, trace_path: str) -> dict:
    """What ``sure-omt analyze`` does, layer by layer (mirrors cli.cmd_analyze)."""
    so, spending = pkg.sure_omt, pkg.spending
    cfg = ANALYZE_CONFIG
    name = cfg["procedure"]
    seen: set = set()
    new_margins = 0
    root = tr.begin("cli.analyze")
    s = tr.begin("spending.build")
    gamma = spending.parse_sequence_spec(cfg["gamma"])
    gamma_prime = spending.parse_sequence_spec(cfg["gamma_prime"])
    tr.end(s)
    s = tr.begin("procedures.build")
    proc = so.make_procedure(name, so.ProcedureConfig(alpha=cfg["alpha"], gamma=gamma, lam=0.0,
                                                      gamma_prime=gamma_prime))
    tr.end(s)
    step_name = f"procedures.{name}.step"
    with open(ctx.tables_csv, newline="") as fh, open(trace_path, "w", newline="") as out:
        reader = csv.reader(fh)
        next(reader)
        writer = csv.writer(out)
        writer.writerow(["t", "id", "p", "alpha", "rho", "epsilon", "reject"])
        for row in reader:
            a, b, c, d = (int(v) for v in row[1:])
            margin = (a + b, c + d, a + c)
            if margin not in seen:
                seen.add(margin)
                new_margins += 1
            s = tr.begin("discrete.fisher")
            result = so.fisher_two_sided(so.ContingencyTable2x2(a, b, c, d))
            tr.end(s)
            s = tr.begin("core.support_to_bound")
            bound = so.support_to_bound(result.support)
            tr.end(s)
            s = tr.begin(step_name)
            proc.emit_alpha()
            dec = proc.observe(result.p_value, bound)
            tr.end(s)
            writer.writerow([dec.t, row[0], _fmt(dec.p), _fmt(dec.alpha), _fmt(dec.rho),
                             _fmt(dec.eps_part), int(dec.reject)])
    s = tr.begin("procedures.audit")
    rep = audit(pkg, name, proc)
    tr.end(s)
    tr.end(root)
    ctx.gates.check("analyze_replay_audit", rep.ok, f"worst excess {rep.worst_excess}")
    return {"new_margins": new_margins, "root": root}


def replay_sim(pkg, ctx, tr: Tracer, report_path: str) -> dict:
    """What ``sure-omt simulate`` does (mirrors simulate.run_sweep/run_trials)."""
    sim, ev, procs_mod = pkg.simulate, pkg.evaluate, pkg.procedures
    config = ctx.sim_config
    base = sim.ScenarioConfig(**config["scenario"])
    sweep = config.get("sweep")
    points = ([(replace(base, n_subjects=v), {"axis": "N", "value": v})
               for v in sweep["values"]] if sweep else [(base, {})])
    report = ev.EvalReport()
    root = tr.begin("simulate.replay")
    for scenario, keys in points:
        outcomes = {name: [] for name in PROCEDURES}
        s_run = tr.begin("simulate.run_trials")
        for i in range(scenario.n_trials):
            s = tr.begin("simulate.generate_trial")
            stream = sim.generate_trial(scenario, i)
            tr.end(s)
            for name in PROCEDURES:
                s = tr.begin("procedures.build")
                proc = procs_mod.make_procedure(name, ctx.sim_configs[name])
                tr.end(s)
                s = tr.begin("procedures.steps")
                step = proc.step
                for p, bound in zip(stream.pvals, stream.bounds):
                    step(p, bound)
                tr.end(s)
                outcomes[name].append(ev.TrialOutcome(proc.rejects, stream.labels))
                s = tr.begin("procedures.audit")
                rep = audit(pkg, name, proc)
                tr.end(s)
                ctx.gates.check("sim_replay_audits", rep.ok, f"{name} trial {i}")
        tr.end(s_run)
        s = tr.begin("evaluate.estimate")
        T = scenario.m
        for name, trials in outcomes.items():
            report.add(name, "fwer", ev.estimate_fwer(trials, T), T, **keys)
            report.add(name, "mfdr", ev.estimate_mfdr(trials, T), T, **keys)
            report.add(name, "power", ev.estimate_power(trials, T), T, **keys)
        tr.end(s)
    s = tr.begin("evaluate.report_write")
    report.to_csv(report_path)
    tr.end(s)
    tr.end(root)
    return {"root": root}


def replay_stream(pkg, ctx, tr: Tracer, round_no: int) -> dict:
    """The stream path with a span per step and a probe of F(alpha); the host
    speed is calibrated after each procedure, as on the plain path."""
    make = pkg.procedures.make_procedure
    rejections = 0
    ctx.stream_procs = [{} for _ in ctx.streams]
    tr.run = f"stream/r{round_no}"
    root = tr.begin("procedures.stream")
    for name in PROCEDURES:
        step_name = f"procedures.{name}.step"
        for j, (procs, (pvals, bounds)) in enumerate(zip(ctx.stream_procs, ctx.streams)):
            tr.run = f"stream/r{round_no}/s{j}"
            s = tr.begin("procedures.build")
            proc = procs[name] = make(name, ctx.stream_configs[name])
            tr.end(s)
            emit, observe = proc.emit_alpha, proc.observe
            s_loop = tr.begin("procedures.steps")
            for p, bound in zip(pvals, bounds):
                s = tr.begin(step_name)
                emit()
                dec = observe(p, bound)
                tr.end(s)
                s = tr.begin("core.cdf_eval")
                bound(dec.alpha)
                tr.end(s)
            tr.end(s_loop)
            rejections += proc.r_count
        ctx.speed.factor()
    tr.end(root)
    return {"rejections": rejections}


def layer_samples(tr: Tracer, info: dict, speed: HostSpeed) -> dict:
    """Per-layer samples of one traced round, from its spans; each duration
    is scaled by the host-speed factor of the unit in which its span began."""
    spans = tr.spans
    scale = [speed.factor_at(s[1]) for s in spans]
    dur = [(s[2] - s[1]) * f for s, f in zip(spans, scale)]
    self_ns = [t * f for t, f in zip(tr.self_times(), scale)]
    by_name: dict[str, list[float]] = {}
    for s, d in zip(spans, dur):
        by_name.setdefault(s[0], []).append(d)

    steps: dict[tuple, list[float]] = {}
    for s, d in zip(spans, dur):
        if s[4].startswith("stream/") and s[0].endswith(".step"):
            steps.setdefault((s[0], s[4]), []).append(d)
    per_proc: dict[str, dict] = {}
    for (name, _), durs in steps.items():
        q = max(1, len(durs) // 4)
        entry = per_proc.setdefault(name.split(".")[1], {"step_ns": [], "growth": []})
        entry["step_ns"].extend(durs)
        entry["growth"].append(sum(durs[-q:]) / sum(durs[:q]))

    sim_root = info["sim"]["root"]
    sim_self = sum(t for s, t in zip(spans, self_ns) if s[0].startswith("simulate."))
    analyze_root = info["analyze"]["root"]
    cli_layers = sum(d for s, d in zip(spans, dur)
                     if s[3] == analyze_root and s[0] != "core.support_to_bound")
    fisher = by_name.get("discrete.fisher", [])
    return {
        "discrete.fisher_ns": fisher,
        "discrete.new_margin_share": info["analyze"]["new_margins"] / max(1, len(fisher)),
        "core.bound_build_ns": by_name.get("core.support_to_bound", []),
        "core.cdf_eval_ns": by_name.get("core.cdf_eval", []),
        "spending.build_ns": sum(by_name["spending.build"]),
        "spending.gamma_lookup_ns": by_name["spending.gamma_lookup"][0] / GAMMA_LOOKUPS,
        "procedures": per_proc,
        "procedures.build_ns": by_name.get("procedures.build", []),
        "procedures.audit_ns": by_name.get("procedures.audit", []),
        "procedures.rejections": info["stream"]["rejections"],
        "simulate.generate_trial_ns": by_name.get("simulate.generate_trial", []),
        "simulate.self_share": sim_self / dur[sim_root],
        "evaluate.estimate_ns": sum(by_name.get("evaluate.estimate", [])),
        "evaluate.report_write_ns": sum(by_name.get("evaluate.report_write", [])),
        "cli.layer_ns": cli_layers,
        "wall_ns": {"analyze": dur[analyze_root], "sim": dur[sim_root],
                    "stream": sum(d for s, d in zip(spans, dur)
                                  if s[0] == "procedures.steps" and s[4].startswith("stream/"))},
    }


# -- a round ----------------------------------------------------------------------

def run_plain(pkg, ctx, args, result: dict) -> None:
    """The three paths through the public entry points, timed; then gates."""
    paths, digests, gates = result["paths"], result["digests"], ctx.gates
    run_path(plain_analyze, pkg, ctx, "analyze", paths["analyze"])
    run_path(plain_stream, pkg, ctx, "stream", paths["stream"])
    run_path(plain_sim, pkg, ctx, "sim", paths["sim"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["step_ns"] = paths["stream"].pop("step_ns", {})
    if paths["analyze"]["failed"] == 0:
        check_analyze_trace(gates, ctx.path("analyze-cli.csv"), ctx.tables)
        digests["analyze"] = {"cli": file_digest(ctx.path("analyze-cli.csv"))}
    if paths["sim"]["failed"] == 0:
        digests["sim"] = {"cli": file_digest(ctx.path("sim-cli.csv"))}
    if not args.gate:
        return
    if paths["analyze"]["failed"] == 0:
        check_scipy(gates, ctx.path("analyze-cli.csv"), ctx.tables)
    try:
        tr = Tracer()
        replay_analyze(pkg, ctx, tr, ctx.path("analyze-replay.csv"))
        digests.setdefault("analyze", {})["replay"] = file_digest(ctx.path("analyze-replay.csv"))
        replay_sim(pkg, ctx, tr, ctx.path("sim-replay.csv"))
        digests.setdefault("sim", {})["replay"] = file_digest(ctx.path("sim-replay.csv"))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        gates.check("replay_no_exception", False, traceback.format_exc().splitlines()[-1])


def run_traced(pkg, ctx, args, result: dict, gamma, marks: dict) -> None:
    """The three paths replayed layer by layer with spans; spans written at the end."""
    speed, digests = ctx.speed, result["digests"]
    tr = Tracer()
    tr.run = f"setup/r{args.round}"
    tr.add("spending.build", marks["spending"], marks["procedures"])
    tr.add("procedures.setup", marks["procedures"], marks["end"])
    speed.mark()
    s = tr.begin("spending.gamma_lookup")
    lookup = gamma.gamma
    for t in range(1, GAMMA_LOOKUPS + 1):
        lookup(t)
    tr.end(s)
    speed.factor()
    info = {}
    tr.run = f"analyze/r{args.round}"
    info["analyze"] = replay_analyze(pkg, ctx, tr, ctx.path("analyze-replay.csv"))
    speed.factor()
    digests["analyze"] = {"replay": file_digest(ctx.path("analyze-replay.csv"))}
    if ctx.streams is None:
        ctx.streams = tables_stream(pkg, ctx.tables)
    speed.mark()
    info["stream"] = replay_stream(pkg, ctx, tr, args.round)
    tr.run = f"sim/r{args.round}"
    info["sim"] = replay_sim(pkg, ctx, tr, ctx.path("sim-replay.csv"))
    speed.factor()
    digests["sim"] = {"replay": file_digest(ctx.path("sim-replay.csv"))}
    result["layers"] = layer_samples(tr, info, speed)
    tr.write(args.spans)


def run_round(args) -> dict:
    spec = WORKLOADS[args.workload][args.size]
    speed = HostSpeed()
    pkg, sim_configs, stream_configs, gamma, marks = setup(spec["reward"])
    setup_factor = speed.factor()
    setup_ns = marks["end"] - marks["start"]
    result = {"setup_ns": setup_ns, "setup_norm_ns": setup_ns * setup_factor,
              "numpy": pkg.numpy.__version__, "cal_ns": speed.cal_ns}
    if args.mode == "setup":
        return result

    ctx = SimpleNamespace(sim_configs=sim_configs, stream_configs=stream_configs,
                          gates=Gates(), stream_procs=[], speed=speed,
                          path=lambda name: os.path.join(args.workdir, f"r{args.round}-{name}"))
    ctx.tables, ctx.streams = make_inputs(pkg, args.workload, args.size, args.seed)
    ctx.tables_csv = ctx.path("tables.csv")
    write_tables(ctx.tables_csv, ctx.tables)
    ctx.analyze_config = ctx.path("analyze.json")
    write_json(ctx.analyze_config, ANALYZE_CONFIG)
    ctx.sim_config = sim_config(args.workload, args.size, args.seed)
    ctx.sim_config_path = ctx.path("sim.json")
    write_json(ctx.sim_config_path, ctx.sim_config)
    result.update(paths={p: {"attempted": n, "failed": 0}
                         for p, n in operation_counts(args.workload, args.size).items()},
                  digests={}, gates=ctx.gates.results)
    if args.mode == "plain":
        run_plain(pkg, ctx, args, result)
    else:
        run_traced(pkg, ctx, args, result, gamma, marks)

    if ctx.stream_procs and result["paths"]["stream"]["failed"] == 0:
        digest = hashlib.sha256()
        for procs in ctx.stream_procs:
            check_stream(ctx.gates, pkg, procs, digest)
        result["digests"]["stream"] = {args.mode: digest.hexdigest()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--gate", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_json(args.out, run_round(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
