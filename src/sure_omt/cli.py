"""Command-line interface: contingency-table analysis, simulation, plot data.

Input tables are CSV rows ``id,a,b,c,d`` processed strictly in file order
(the stream order is the file order).  All numeric output uses 17
significant digits so traces replay bit-faithfully.

Exit codes: 0 success with audits passing, 1 audit violation, 2 input or
configuration error, told in one line that names the table line or the key
path of the config object (KEYS and spending.SPEC_KEYS list their keys).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import nullcontext

from .discrete import ContingencyTable2x2, fisher_two_sided
from .evaluate import open_atomic
from .procedures import (FWER_NAMES, ProcedureConfig, audit_fwer_budget,
                         audit_mfdr_budget, make_procedure, parse_name)
from .simulate import ScenarioConfig, run_sweep, sweep_points
from .spending import check_keys, json_float, parse_sequence_spec

CONFIG_ENV_VAR = "SURE_OMT_CONFIG"

PROCEDURE_KEYS = ("alpha", "lambda", "w0", "gamma", "gamma_prime")
# the (required, optional) keys of each JSON object of a config, by its path
KEYS = {"analyze": (("procedure",), (*PROCEDURE_KEYS, "max_rows")),
        "simulate": ((), ("scenario", "procedures", "sweep")),
        "procedures[i]": (("name",), PROCEDURE_KEYS),
        "scenario": ((), tuple(f.name for f in dataclasses.fields(ScenarioConfig))),
        "sweep": (("axis", "values"), ())}
DEFAULT_GAMMA = {"family": "power", "q": 1.6}
# analyze fills in only alpha and lambda; w0 and gamma_prime must be given
ANALYZE_DEFAULTS = {"alpha": 0.2, "lambda": 0.0}
# simulate fills in the standard experimental configuration: w0 = alpha/2 for
# investing rules and a kernel gamma' of bandwidth 100 (FWER) or 10 (mFDR)
STANDARD_DEFAULTS = {"alpha": 0.2, "lambda": 0.5, "w0_share": 0.5,
                     "kernel_h": {"fwer": 100, "mfdr": 10}}


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _at(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; an error it raises is prefixed with ``path``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}" if path else str(exc)) from None


def _load_config(path: str | None, overrides: list[str]):
    config = {}
    if path is not None:
        try:
            # utf-8-sig drops the byte order mark an editor may write first
            with open(path, encoding="utf-8-sig") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise InputError(f"cannot read config {path}: {exc}")
    for item in overrides if isinstance(config, dict) else ():  # else its key check fails
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise InputError(f"--set {key}: {part} is not an object")
        node[leaf] = value
    return config


def _procedure(path: str, spec: dict, defaults: dict, default_gamma, configs: dict) -> None:
    """Add to ``configs`` the config of the entry ``spec`` at ``path`` (the root: analyze's)."""
    name = spec.pop("name" if path else "procedure")
    rule = parse_name(name)
    if name in configs:
        raise ValueError(f"{name} is listed twice")
    alpha = json_float(spec.get("alpha", defaults["alpha"]), "alpha")
    if rule.investing and "w0_share" in defaults:
        spec.setdefault("w0", defaults["w0_share"] * alpha)
    if rule.rewarded and "kernel_h" in defaults:
        h = defaults["kernel_h"]["mfdr" if rule.investing else "fwer"]
        spec.setdefault("gamma_prime", {"family": "kernel", "h": h})
    for key, group in (("w0", "investing"), ("gamma_prime", "rewarded")):
        if (key in spec) != getattr(rule, group):
            raise ValueError(f"{key} is required by the {group} rules and taken by no other")
    if "lambda" in spec and not rule.adaptive:
        raise ValueError("lambda is taken only by the adaptive rules")
    gammas = {key: _at(f"{path}.{key}".lstrip("."), parse_sequence_spec, spec[key])
              for key in ("gamma", "gamma_prime") if key in spec}
    configs[name] = ProcedureConfig(
        alpha=alpha,
        gamma=gammas.get("gamma", default_gamma),
        lam=json_float(spec.get("lambda", defaults["lambda"]), "lambda"),
        w0=json_float(spec["w0"], "w0") if rule.investing else None,
        gamma_prime=gammas.get("gamma_prime"),
    )


def parse_procedures(entries, kind: str = "procedures[i]",
                     defaults: dict = STANDARD_DEFAULTS) -> dict[str, ProcedureConfig]:
    """Turn a nonempty list of procedure entries into configs keyed by public name.

    An entry of ``kind`` (a simulate entry, or the analyze root) has a name
    and any of PROCEDURE_KEYS; ``defaults`` fills in the keys left out (see
    ANALYZE_DEFAULTS and STANDARD_DEFAULTS), and the default gamma is built
    once and shared.  A config has w0 if and only if the rule is investing,
    and gamma_prime if and only if it is rewarded; an entry gives lambda only
    for an adaptive rule.
    """
    if not isinstance(entries, list) or not entries:
        raise InputError("procedures must be a nonempty list")
    default_gamma = parse_sequence_spec(DEFAULT_GAMMA)
    configs = {}
    for i, entry in enumerate(entries):
        path = "" if kind == "analyze" else f"procedures[{i}]"
        spec = dict(_at(path, check_keys, entry, kind, *KEYS[kind]))
        _at(path, _procedure, path, spec, defaults, default_gamma, configs)
    return configs


def _test_rows(fh, max_rows: int | None):
    """Yield (id, exact test result) for each row of an open table CSV."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        return
    if [h.strip() for h in header] != ["id", "a", "b", "c", "d"]:
        raise InputError(f"line 1: expected header id,a,b,c,d, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if max_rows is not None and lineno - 1 > max_rows:
            return
        if len(row) != 5:
            raise InputError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            result = fisher_two_sided(ContingencyTable2x2(*map(int, row[1:])))
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        yield row[0], result


def cmd_analyze(args) -> int:
    config = _load_config(args.config, args.set or [])
    [(name, proc_config)] = parse_procedures([config], "analyze", ANALYZE_DEFAULTS).items()
    max_rows = config.get("max_rows")
    if max_rows is not None and (type(max_rows) is not int or max_rows < 0):
        raise InputError(f"max_rows must be a nonnegative integer, got {max_rows!r}")
    proc = make_procedure(name, proc_config)
    try:
        # utf-8-sig drops the byte order mark a spreadsheet may write first; both
        # outputs are opened before any row is read: both are written or neither
        with (open(args.input, newline="", encoding="utf-8-sig") as fh,
              open_atomic(args.out_trace, newline="") as out,
              (open_atomic(args.out_summary) if args.out_summary
               else nullcontext()) as summary_out):
            writer = csv.writer(out)
            writer.writerow(["t", "id", "p", "alpha", "rho", "epsilon", "reject"])
            for row_id, result in _test_rows(fh, max_rows):
                proc.emit_alpha()
                dec = proc.observe(result.p_value, result.null_bound)
                writer.writerow([dec.t, row_id, _fmt(dec.p), _fmt(dec.alpha),
                                 _fmt(dec.rho), _fmt(dec.eps_part), int(dec.reject)])
            audit = audit_fwer_budget(proc) if name in FWER_NAMES else audit_mfdr_budget(proc)
            summary = {
                "rows": proc.t,
                "discoveries": proc.r_count,
                "audit_ok": audit.ok,
                # strict JSON has no Infinity: a non-finite excess is written as null
                "audit_worst_excess": (audit.worst_excess if math.isfinite(audit.worst_excess)
                                       else None),
                "audit_worst_t": audit.worst_t,
            }
            text = json.dumps(summary, indent=2, allow_nan=False)
            if summary_out is not None:
                summary_out.write(text + "\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.input} is not UTF-8 text ({exc.reason})") from None
    print(text)
    return 0 if audit.ok else 1


def cmd_simulate(args) -> int:
    root = _load_config(args.config, args.set or [])
    _at("", check_keys, root, "simulate", *KEYS["simulate"])
    configs = parse_procedures(root.get("procedures", [{"name": "rho-ob"}, {"name": "rho-lord"}]))
    scenario = _at("scenario", check_keys, root.get("scenario", {}), "scenario", *KEYS["scenario"])
    scenario = _at("scenario", ScenarioConfig, **scenario)
    sweep = root.get("sweep", {"axis": None, "values": None})
    _at("sweep", check_keys, sweep, "sweep", *KEYS["sweep"])
    points = _at("sweep", sweep_points, scenario, configs, **sweep)
    report = run_sweep(points)
    report.write(args.out, args.out_json)
    print(json.dumps({"rows": len(report.rows), "audits_ok": report.audits_ok}))
    return 0 if report.audits_ok else 1


def _loglog(y: float) -> str:
    # -log(-log(y)); values outside (0, 1) have no image on this scale
    if not 0.0 < y < 1.0:
        return ""
    return _fmt(-math.log(-math.log(y)))


def cmd_plotdata(args) -> int:
    transform = args.transform
    try:
        with (open(args.trace, newline="", encoding="utf-8-sig") as fh,
              open_atomic(args.out, newline="") as out):
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"t", "p", "alpha"} <= set(reader.fieldnames):
                raise InputError("trace file must have t, p and alpha columns")
            writer = csv.writer(out)
            writer.writerow(["t", "series", "value"])
            for row in reader:
                try:
                    ys = [float(row["p"]), float(row["alpha"])]  # a short row has None
                except (TypeError, ValueError):
                    raise InputError(f"line {reader.line_num}: p and alpha must be numbers, "
                                     f"got {row['p']!r} and {row['alpha']!r}") from None
                for series, y in zip(("p", "alpha"), ys):
                    value = _fmt(y) if transform == "raw" else _loglog(y)
                    writer.writerow([row["t"], series, value])
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.trace} is not UTF-8 text ({exc.reason})") from None
    return 0


def _check_distinct_files(args) -> None:
    """Reject two file arguments that name one file, before any is written:
    an output would replace an input or the other output."""
    seen = {}
    for dest in args.files:
        path = getattr(args, dest)
        if path is not None:
            flag = "--" + dest.replace("_", "-")
            first = seen.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise InputError(f"{first} and {flag} name the same file {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sure-omt",
        description="Online multiple testing with super-uniformity rewards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one procedure over a table CSV")
    pa.add_argument("--input", required=True, help="CSV with header id,a,b,c,d")
    pa.add_argument("--out-trace", required=True)
    pa.add_argument("--out-summary")
    pa.set_defaults(func=cmd_analyze, files=("config", "input", "out_trace", "out_summary"))

    ps = sub.add_parser("simulate", help="Monte-Carlo evaluation run")
    ps.add_argument("--out", required=True, help="report CSV path")
    ps.add_argument("--out-json")
    ps.set_defaults(func=cmd_simulate, files=("config", "out", "out_json"))
    for command in (pa, ps):
        command.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR),
                             help=f"JSON config (default ${CONFIG_ENV_VAR})")
        command.add_argument("--set", action="append", metavar="KEY=VALUE")

    pp = sub.add_parser("plotdata", help="trace to plot-ready long format")
    pp.add_argument("--trace", required=True)
    pp.add_argument("--transform", choices=("raw", "loglog"), default="raw")
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_plotdata, files=("trace", "out"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_distinct_files(args)
        return args.func(args)
    except (InputError, OSError, MemoryError) as exc:  # MemoryError: an input too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
