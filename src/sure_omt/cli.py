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
import re
import sys
from contextlib import nullcontext
from itertools import islice

from .discrete import fisher_margins_batch, table_margins
from .evaluate import open_atomic
from .procedures import (ProcedureConfig, audit_fwer_budget, audit_mfdr_budget,
                         make_procedure, parse_name)
from .simulate import ScenarioConfig, run_sweep, sweep_points
from .spending import check_keys, json_float, make_power_law, parse_sequence_spec

CONFIG_ENV_VAR = "SURE_OMT_CONFIG"

PROCEDURE_KEYS = ("alpha", "lambda", "w0", "gamma", "gamma_prime")
# the (required, optional) keys of each JSON object of a config, by its path
KEYS = {"analyze": (("procedure",), (*PROCEDURE_KEYS, "max_rows")),
        "simulate": ((), ("scenario", "procedures", "sweep")),
        "procedures[i]": (("name",), PROCEDURE_KEYS),
        "scenario": ((), tuple(f.name for f in dataclasses.fields(ScenarioConfig))),
        "sweep": (("axis", "values"), ())}
DEFAULT_GAMMA = make_power_law(1.6)  # one sequence, shared by every config
# analyze fills in only alpha and lambda; w0 and gamma_prime must be given
ANALYZE_DEFAULTS = {"alpha": 0.2, "lambda": 0.0}
# simulate fills in the standard experimental configuration: w0 = alpha/2 for
# investing rules and a kernel gamma' of bandwidth 100 (FWER) or 10 (mFDR)
STANDARD_DEFAULTS = {"alpha": 0.2, "lambda": 0.5, "w0_share": 0.5,
                     "kernel_h": {"fwer": 100, "mfdr": 10}}
# analyze reads ahead a block of rows until they count this many feasible
# tables, each row counting READ_AHEAD_ROW_TABLES more for itself (a row held
# costs about 1 kB, a table about 15 bytes), and tests its margins in one call
READ_AHEAD_TABLES = 1 << 16
READ_AHEAD_ROW_TABLES = 20
# the trace, as csv.writer writes it: CRLF line ends, the id quoted where it
# must be (_csv_field), the floats to 17 significant digits, reject as 0 or 1
TRACE_HEADER = "t,id,p,alpha,rho,epsilon,reject\r\n"
TRACE_LINE = "%d,%s,%.17g,%.17g,%.17g,%.17g,%d\r\n"
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field of a row of several: quoted,
    each ``"`` doubled, when it holds a comma, a quote, a CR or a LF."""
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


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


def _procedure(path: str, spec: dict, configs: dict) -> None:
    """Add to ``configs`` the config of the entry ``spec`` at ``path`` (the root: analyze's)."""
    defaults = STANDARD_DEFAULTS if path else ANALYZE_DEFAULTS
    name = spec.pop("name" if path else "procedure")
    rule = parse_name(name)
    if name in configs:
        raise ValueError(f"{name} is listed twice")
    alpha = json_float(spec.get("alpha", defaults["alpha"]), "alpha")
    if path and rule.investing:
        spec.setdefault("w0", defaults["w0_share"] * alpha)
    if path and rule.rewarded:
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
        gamma=gammas.get("gamma", DEFAULT_GAMMA),
        lam=json_float(spec.get("lambda", defaults["lambda"]), "lambda"),
        w0=json_float(spec["w0"], "w0") if rule.investing else None,
        gamma_prime=gammas.get("gamma_prime"),
    )


def parse_procedures(entries, kind: str = "procedures[i]") -> dict[str, ProcedureConfig]:
    """Turn a nonempty list of procedure entries into configs keyed by public name.

    An entry of ``kind`` (a simulate entry, or the analyze root) has a name
    and any of PROCEDURE_KEYS; its kind's defaults fill in the keys left out
    (ANALYZE_DEFAULTS or STANDARD_DEFAULTS), and every config without a gamma
    shares DEFAULT_GAMMA.  A config has w0 if and only if the rule is
    investing, and gamma_prime if and only if it is rewarded; an entry gives
    lambda only for an adaptive rule.
    """
    if not isinstance(entries, list) or not entries:
        raise InputError("procedures must be a nonempty list")
    configs = {}
    for i, entry in enumerate(entries):
        path = "" if kind == "analyze" else f"procedures[{i}]"
        spec = dict(_at(path, check_keys, entry, kind, *KEYS[kind]))
        _at(path, _procedure, path, spec, configs)
    return configs


def _table_blocks(reader, max_rows: int | None):
    """Yield the rows of a table CSV's ``csv.reader`` in read-ahead blocks,
    each as its ids, first cells and margins (three lists of one entry per row).

    A block counts READ_AHEAD_TABLES (its rows' feasible tables, and
    READ_AHEAD_ROW_TABLES for each row); each row is checked as it is read,
    so the first bad row raises, naming the line it ends on (a quoted field
    may span lines).  No row past ``max_rows`` is read.
    """
    header = next(reader, None)
    if header is None:
        return
    if [h.strip() for h in header] != ["id", "a", "b", "c", "d"]:
        raise InputError(f"line {reader.line_num}: expected header id,a,b,c,d, got {header}")
    # a file has fewer than sys.maxsize rows, islice's largest count
    rows = reader if max_rows is None else islice(reader, min(max_rows, sys.maxsize))
    while True:
        ids, firsts, margins, count = [], [], [], 0
        for row in rows:
            if len(row) != 5:
                raise InputError(f"line {reader.line_num}: expected 5 fields, got {len(row)}")
            try:
                cells = int(row[1]), int(row[2]), int(row[3]), int(row[4])
                r1, r2, c1 = margin = table_margins(cells)
            except ValueError as exc:
                raise InputError(f"line {reader.line_num}: {exc}") from None
            ids.append(row[0])
            firsts.append(cells[0])
            margins.append(margin)
            count += min(r1, r2, c1, r1 + r2 - c1) + 1 + READ_AHEAD_ROW_TABLES
            if count >= READ_AHEAD_TABLES:
                break
        if not ids:
            return
        yield ids, firsts, margins


def cmd_analyze(args) -> int:
    config = _load_config(args.config, args.set or [])
    [(name, proc_config)] = parse_procedures([config], "analyze").items()
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
            out.write(TRACE_HEADER)
            emit, observe = proc.emit_alpha, proc.observe
            reader = csv.reader(fh)
            for ids, firsts, margins in _table_blocks(reader, max_rows):
                lines = []
                for row_id, a, (pvals, lo, bound) in zip(ids, firsts,
                                                         fisher_margins_batch(margins)):
                    emit()
                    t, p, alpha, reject, rho, _, _, eps, _ = observe(pvals.item(a - lo), bound)
                    lines.append(TRACE_LINE % (t, _csv_field(row_id), p, alpha, rho, eps, reject))
                out.write("".join(lines))
            audit = (audit_mfdr_budget if parse_name(name).investing else audit_fwer_budget)(proc)
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
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise InputError(f"line {reader.line_num}: {exc}") from None
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
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise InputError(f"line {reader.reader.line_num}: {exc}") from None
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
