import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sure_omt import cli, discrete
from sure_omt.cli import CONFIG_ENV_VAR, main, parse_procedures
from sure_omt.procedures import RULES, AuditReport
from sure_omt.simulate import ScenarioConfig, generate_trial


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _write_tables(tmp_path, rows, header="id,a,b,c,d", name="tables.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


ANALYZE_CFG = {
    "procedure": "rho-ob",
    "alpha": 0.2,
    "gamma": {"family": "power", "q": 1.6},
    "gamma_prime": {"family": "kernel", "h": 5},
}


def test_analyze_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["g1,3,0,0,3", "g2,1,1,1,1", "g3,5,0,0,5"])
    trace = tmp_path / "trace.csv"
    code = main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)])
    assert code == 0
    rows = list(csv.DictReader(trace.open()))
    assert [r["id"] for r in rows] == ["g1", "g2", "g3"]
    assert [int(r["t"]) for r in rows] == [1, 2, 3]
    # first level is alpha * gamma_1 = 0.2 / zeta(1.6) ~= 0.0875: no rejection of p=0.1
    a1 = float(rows[0]["alpha"])
    assert a1 == pytest.approx(0.2 / 2.28576566568013, rel=1e-12)
    assert rows[0]["reject"] == "0"
    # the unspent level is rewarded: rho_1 = alpha_1 (support starts above alpha_1)
    assert float(rows[0]["rho"]) == a1
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 3 and summary["audit_ok"]


def test_analyze_output_is_reproducible(tmp_path):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,3,1,0,4", "b,2,2,2,2", "c,4,0,1,3"])
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(t1)]) == 0
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_analyze_investing_procedure(tmp_path):
    cfg = _write_config(tmp_path, {
        "procedure": "rho-lord", "alpha": 0.2, "w0": 0.1,
        "gamma": {"family": "power", "q": 1.6},
        "gamma_prime": {"family": "kernel", "h": 10},
    })
    tables = _write_tables(tmp_path, ["a,6,0,0,6", "b,1,5,5,1"])
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    code = main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace), "--out-summary", str(summary)])
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["discoveries"] >= 1  # 6-vs-0 split is decisive at level 0.0875


@pytest.mark.parametrize("rows,header", [
    (["a,1,2,3"], "id,a,b,c,d"),            # short row
    (["a,1,2,3,x"], "id,a,b,c,d"),          # non-integer cell
    (["a,1,2,3,-1"], "id,a,b,c,d"),         # negative cell
    (["a,1,2,3,4"], "id,w,x,y,z"),          # wrong header
])
def test_analyze_rejects_malformed_input(tmp_path, rows, header, capsys):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, rows, header=header)
    code = main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def test_analyze_reports_offending_line(tmp_path, capsys):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,1,2,3,4", "b,1,2,3,bad"])
    trace = tmp_path / "t.csv"
    code = main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    # the output is written atomically: a failed run leaves no partial trace
    assert not trace.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tables.csv"]


def test_analyze_rejects_non_utf8_input(tmp_path, capsys):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = tmp_path / "tables.csv"
    tables.write_bytes(b"id,a,b,c,d\na,1,2,3,4\n\xff\xfe,1,2,3,4\n")
    trace = tmp_path / "t.csv"
    code = main(["analyze", "--config", cfg, "--input", str(tables),
                 "--out-trace", str(trace)])
    assert code == 2
    _assert_one_error_line(capsys, "UTF-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tables.csv"]
    # a config file that is not UTF-8 is a config error as well
    (tmp_path / "cfg.json").write_bytes(b'{"procedure": "\xff"}')
    assert main(["analyze", "--config", cfg, "--input", str(tables),
                 "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "cannot read config")


def test_inputs_may_start_with_a_byte_order_mark(tmp_path):
    """A table CSV or trace saved with a UTF-8 byte order mark (as spreadsheets
    save them) reads as the same file without it."""
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = Path(_write_tables(tmp_path, ["a,3,1,0,4", "b,2,2,2,2", "c,4,0,1,3"]))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + tables.read_bytes())
    out = {}
    for name, path in (("plain", tables), ("marked", marked)):
        trace = tmp_path / f"{name}-trace.csv"
        assert main(["analyze", "--config", cfg, "--input", str(path),
                     "--out-trace", str(trace)]) == 0, name
        out[name] = trace.read_bytes()
    assert out["marked"] == out["plain"]
    marked.write_bytes(b"\xef\xbb\xbf" + out["plain"])
    for name, trace in (("plain", tmp_path / "plain-trace.csv"), ("marked", marked)):
        plot = tmp_path / f"{name}-plot.csv"
        assert main(["plotdata", "--trace", str(trace), "--out", str(plot)]) == 0, name
        out[name] = plot.read_bytes()
    assert out["marked"] == out["plain"]


def test_config_may_start_with_a_byte_order_mark(tmp_path):
    """A config saved with a UTF-8 byte order mark (as some editors save it)
    reads as the same config without it; it used to exit 2 with "Unexpected
    UTF-8 BOM"."""
    tables = _write_tables(tmp_path, ["a,3,1,0,4", "b,2,2,2,2", "c,4,0,1,3"])
    out = {}
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.json"
        cfg.write_bytes(mark + json.dumps(ANALYZE_CFG).encode())
        trace = tmp_path / f"{name}-trace.csv"
        assert main(["analyze", "--config", str(cfg), "--input", tables,
                     "--out-trace", str(trace)]) == 0, name
        out[name] = trace.read_bytes()
    assert out["marked"] == out["plain"]
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"scenario": {"m": 10, "n_trials": 1}}).encode())
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0


BIG = 10**20


@pytest.mark.parametrize("payload,fragment", [
    ({"scenario": {"m": BIG, "n_trials": 1}}, "scenario: m must lie in"),
    ({"scenario": {"m": 10, "n_subjects": BIG, "n_trials": 1}}, "scenario: n_subjects must lie in"),
    ({"scenario": {"m": 10, "n_trials": 1}, "sweep": {"axis": "N", "values": [5, BIG]}},
     "sweep: n_subjects must lie in"),
], ids=["m", "n_subjects", "N-sweep"])
def test_oversized_scenario_is_a_config_error(tmp_path, capsys, payload, fragment):
    """A scenario size numpy cannot hold, or a group too large for the exact
    test, exits 2 with one error line that names the key; m and n_subjects of
    10^20 used to end in an OverflowError traceback (exit 1)."""
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", _write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    _assert_one_error_line(capsys, fragment)
    assert not out.exists()


HUGE = 10**400  # a JSON integer float() cannot hold


@pytest.mark.parametrize("command,payload,fragment", [
    ("analyze", {"procedure": "ob", "alpha": HUGE}, "alpha must be at most"),
    ("analyze", {"procedure": "ob", "gamma": {"family": "power", "q": HUGE}},
     "gamma: q must be at most"),
    ("analyze", {"procedure": "aob", "lambda": -HUGE}, "lambda must be at most"),
    ("simulate", {"procedures": [{"name": "rho-lord", "w0": HUGE}]},
     "procedures[0]: w0 must be at most"),
    ("simulate", {"procedures": [{"name": "rho-ob", "gamma_prime": {
        "family": "explicit", "values": [0.5, HUGE]}}]}, "gamma_prime: values[1] must be at most"),
], ids=["alpha", "spec-q", "lambda", "w0", "values"])
def test_integer_too_large_for_a_float_names_its_key(tmp_path, capsys, command, payload,
                                                     fragment):
    """A JSON integer past the largest float exits 2 with one error line that
    names its key.  At the analyze root it used to say only "int too large to
    convert to float", and in a spec it named only the spec."""
    out = tmp_path / "out.csv"
    args = (["--input", _write_tables(tmp_path, ["a,1,2,3,4"]), "--out-trace", str(out)]
            if command == "analyze" else ["--out", str(out)])
    assert main([command, "--config", _write_config(tmp_path, payload), *args]) == 2
    _assert_one_error_line(capsys, fragment)
    assert not out.exists()


def test_integer_seed_too_large_for_a_float_still_runs(tmp_path):
    """A seed is never made a float: SeedSequence takes an integer of any size."""
    out = tmp_path / "r.csv"
    cfg = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1, "seed": HUGE}})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


def test_oversized_table_row_is_an_input_error(tmp_path, capsys):
    """A row whose smallest margin exceeds the exact test's bound exits 2 and
    names its line, before any array is made; a row of 10^20 in each cell used
    to end in an OverflowError traceback (exit 1)."""
    tables = _write_tables(tmp_path, ["a,1,2,3,4", ",".join(["x", *[str(BIG)] * 4])])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", tables, "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "line 3: a table's smallest margin must be at most 1048576")
    assert not trace.exists()


def test_a_group_past_the_float_range_is_an_input_error(tmp_path, capsys):
    """A row with a group past MAX_GROUP exits 2 and names its line, and the
    exact test of its table raises ValueError; the row x,10^400,0,3,2, whose
    smallest margin is 2, used to end in an OverflowError traceback from
    lgamma (exit 1)."""
    tables = _write_tables(tmp_path, [f"x,{HUGE},0,3,2"])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", tables, "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "line 2: a table's groups (row sums) must be at most 2**24")
    assert not trace.exists()
    with pytest.raises(ValueError, match="groups"):
        discrete.fisher_two_sided(discrete.ContingencyTable2x2(HUGE, 0, 3, 2))
    # a group of MAX_GROUP is taken, and one past it is not
    assert discrete.fisher_two_sided(discrete.ContingencyTable2x2(discrete.MAX_GROUP, 0, 3, 2))
    with pytest.raises(ValueError, match="groups"):
        discrete.fisher_two_sided(discrete.ContingencyTable2x2(discrete.MAX_GROUP + 1, 0, 3, 2))


def test_groups_whose_log_pmf_overflows_are_an_input_error(tmp_path, capsys):
    """Groups past MAX_GROUP exit 2 naming their line: the row x,500,10^17 -
    500,500,10^17 - 500 used to end in an OverflowError traceback from exp
    (exit 1), its lgamma differences rounded to a log-pmf past exp's range.
    The worst margins at the bound still run."""
    big = 10**17 - 500
    tables = _write_tables(tmp_path, ["a,1,2,3,4", f"x,500,{big},500,{big}"])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", tables, "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "line 3: a table's groups (row sums) must be at most 2**24")
    assert not trace.exists()
    with pytest.raises(ValueError, match="groups"):
        discrete.fisher_two_sided(discrete.ContingencyTable2x2(500, big, 500, big))
    n = discrete.MAX_GROUP
    for margin in [(n, n, 7), (n, n, 2 * n - 7), (n, 7, 7), (n, n - 1, 11)]:
        pvals, _, bound = discrete.fisher_margins(*margin)
        assert 0.0 < pvals.min() and pvals.max() <= 1.0 and bound.support[-1] == 1.0, margin


def test_a_group_one_past_max_group_is_an_input_error(tmp_path, capsys):
    """A group of MAX_GROUP + 1, past which a p-value may stray more than 1e-6
    from its exact value, exits 2 naming its line, and no trace is written;
    groups of 2^53 used to be taken, their p-values off by more than 1e30."""
    n = discrete.MAX_GROUP
    tables = _write_tables(tmp_path, [f"a,3,{n - 3},2,{n - 2}", f"b,3,{n - 2},2,{n - 2}"])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", tables, "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "line 3: a table's groups (row sums) must be at most 2**24")
    assert not trace.exists()
    with pytest.raises(ValueError, match="groups"):
        discrete.fisher_two_sided(discrete.ContingencyTable2x2(3, n - 2, 2, n - 2))


def test_negative_cell_is_an_input_error(tmp_path, capsys):
    """A negative cell exits 2 and names its line: the exact test checks the
    counts of the table it is given."""
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,-1,0,2"])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", tables, "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "line 3: cell counts must be nonnegative")
    assert not trace.exists()


def test_analyze_large_groups(tmp_path, capsys):
    """Groups of 600-800 subjects underflow tail pmfs; analyze still runs."""
    from scipy.stats import fisher_exact

    cfg = _write_config(tmp_path, ANALYZE_CFG)
    rows = [(300, 300, 305, 295), (500, 500, 505, 495), (3, 1, 0, 4)]
    tables = _write_tables(tmp_path, [f"r{i},{a},{b},{c},{d}"
                                      for i, (a, b, c, d) in enumerate(rows)])
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["audit_ok"]
    out = list(csv.DictReader(trace.open()))
    for (a, b, c, d), r in zip(rows, out):
        want = fisher_exact([[a, b], [c, d]], alternative="two-sided").pvalue
        assert float(r["p"]) == pytest.approx(want, rel=1e-9)


def test_analyze_bad_config_combinations(tmp_path, capsys):
    tables = ["a,1,2,3,4"]
    trace = str(tmp_path / "t.csv")
    bad = [  # (config, table rows, trace path, fragment of the message)
        ({**ANALYZE_CFG, "procedure": "nope"}, tables, trace, ""),
        ({**ANALYZE_CFG, "procedure": "rho-lord"}, tables, trace, ""),   # missing w0
        ({**ANALYZE_CFG, "w0": 0.1}, tables, trace, ""),                 # w0 on a FWER rule
        ({k: v for k, v in ANALYZE_CFG.items() if k != "gamma_prime"}, tables, trace, ""),
        ({**ANALYZE_CFG, "procedure": "ob"}, tables, trace, ""),         # gamma_prime on base rule
        ({**ANALYZE_CFG, "alpha": 2.0}, tables, trace, ""),
        (ANALYZE_CFG, tables, str(tmp_path / "missing" / "t.csv"), ""),
        ({**ANALYZE_CFG, "max_rows": "x"}, tables, trace, "max_rows"),
        ({**ANALYZE_CFG, "alpha": "abc"}, tables, trace, ""),
    ]
    for payload, rows, out, fragment in bad:
        cfg = _write_config(tmp_path, payload)
        code = main(["analyze", "--config", cfg, "--input", _write_tables(tmp_path, rows),
                     "--out-trace", out])
        assert code == 2, payload
        _assert_one_error_line(capsys, fragment)


@pytest.mark.parametrize("key,value", [
    ("alpha", "0.2"), ("lambda", "0.1"), ("lambda", False), ("w0", "0.05"), ("w0", True),
])
def test_analyze_config_numbers_must_be_numbers(tmp_path, capsys, key, value):
    """A string or bool for a number exits 2 and names the key.  These used to
    run: float() read "0.2" as 0.2, and a lambda of false ran as 0."""
    payload = {**ANALYZE_CFG, "procedure": "rho-alord", "w0": 0.1, "lambda": 0.3, key: value}
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, payload),
                 "--input", _write_tables(tmp_path, ["a,1,2,3,4"]),
                 "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, f"{key} must be a number, got {value!r}")
    assert not trace.exists()


@pytest.mark.parametrize("name", [name for name, rule in RULES.items() if not rule.adaptive])
def test_lambda_on_a_rule_that_is_not_adaptive_is_a_config_error(tmp_path, capsys, name):
    """A lambda given on ob, rho-ob, lord or rho-lord exits 2 in both commands:
    it used to exit 0 and run at lambda = 0.  The simulate default lambda and
    a lambda sweep are no key of the entry, and still run."""
    entry = {"lambda": 0.5}
    if RULES[name].investing:
        entry["w0"] = 0.1
    if RULES[name].rewarded:
        entry["gamma_prime"] = {"family": "kernel", "h": 5}
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, {"procedure": name, **entry}),
                 "--input", _write_tables(tmp_path, ["a,1,2,3,4"]),
                 "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, "lambda is taken only by the adaptive rules")
    assert not trace.exists()
    small = {"m": 10, "n_trials": 1}
    out = tmp_path / "r.csv"
    cfg = _write_config(tmp_path, {"procedures": [{"name": name, **entry}], "scenario": small})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    _assert_one_error_line(capsys, "lambda is taken only by the adaptive rules")
    assert not out.exists()
    cfg = _write_config(tmp_path, {"procedures": [{"name": name}], "scenario": small,
                                   "sweep": {"axis": "lambda", "values": [0.0, 0.5]}})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("payload,key", [
    ({"scenario": {"pi_a": "0.3"}}, "pi_a"),
    ({"scenario": {"p3": "0.4"}}, "p3"),
    ({"scenario": {"p_null_low": False}}, "p_null_low"),
    ({"scenario": {"p_null_mid": "0.1"}}, "p_null_mid"),
    ({"sweep": {"axis": "pi_a", "values": [0.1, "0.3"]}}, "pi_a"),
    ({"procedures": [{"name": "aob", "lambda": "0.5"}]}, "lambda"),
    ({"procedures": [{"name": "lord", "alpha": "0.2"}]}, "alpha"),
    ({"sweep": {"axis": "lambda", "values": [0.3, "0.3"]}}, "lambda"),
    ({"sweep": {"axis": "lambda", "values": [None]}}, "lambda"),
    ({"sweep": {"axis": "lambda", "values": [False]}}, "lambda"),
])
def test_simulate_config_numbers_must_be_numbers(tmp_path, capsys, payload, key):
    """A non-number scenario probability exits 2 with a message that names the
    key; it used to report Python's "'<=' not supported between instances".
    A lambda sweep value of false used to run as lambda = 0 and exit 0."""
    payload = {**payload, "scenario": {"m": 10, "n_trials": 1, **payload.get("scenario", {})}}
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", _write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    _assert_one_error_line(capsys, f"{key} must be a number")
    assert not out.exists()


def test_config_from_env_and_overrides(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    monkeypatch.setenv(CONFIG_ENV_VAR, cfg)
    tables = _write_tables(tmp_path, ["a,2,1,1,2"])
    trace = tmp_path / "trace.csv"
    assert main(["analyze", "--input", tables, "--out-trace", str(trace)]) == 0
    # --set overrides a nested key
    trace2 = tmp_path / "trace2.csv"
    assert main(["analyze", "--input", tables, "--out-trace", str(trace2),
                 "--set", "gamma_prime.h=2", "--set", "alpha=0.1"]) == 0
    r1 = list(csv.DictReader(trace.open()))
    r2 = list(csv.DictReader(trace2.open()))
    assert float(r2[0]["alpha"]) == pytest.approx(float(r1[0]["alpha"]) / 2)


def test_analyze_max_rows(tmp_path):
    cfg = _write_config(tmp_path, {**ANALYZE_CFG, "max_rows": 2})
    tables = _write_tables(tmp_path, ["a,1,2,3,4", "b,2,2,2,2", "c,3,1,1,3"])
    trace = tmp_path / "trace.csv"
    assert main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)]) == 0
    assert len(list(csv.DictReader(trace.open()))) == 2


def _good_rows(n):
    return [f"g{i},{i % 7},{3 + i % 5},{i % 4},{2 + i % 6}" for i in range(n)]


@pytest.mark.parametrize("bad,fragment", [
    ("x,1,-1,0,2", "cell counts must be nonnegative"),
    ("x,1,2,3", "expected 5 fields"),
    ("x,1,2,3,y", "invalid literal"),
    ("x," + ",".join([str(BIG)] * 4), "a table's smallest margin must be at most"),
], ids=["negative", "short", "literal", "margin"])
def test_analyze_reads_ahead_yet_names_the_first_bad_line(tmp_path, capsys, bad, fragment):
    """A bad row after good rows of its read-ahead block, and before more bad
    rows, exits 2 naming its own line: each row is checked as it is read."""
    rows = _good_rows(25) + [bad] + _good_rows(10) + ["y,1,-1,0,2", "z,1,2"]
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
                 "--input", _write_tables(tmp_path, rows), "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, f"line 27: {fragment}")
    assert not trace.exists()


@pytest.mark.parametrize("bad,fragment", [
    ("c,1,2,3,x", "invalid literal for int()"),
    ("c,1,2,3", "expected 5 fields, got 4"),
    ("c,1,2,3,-1", "cell counts must be nonnegative"),
], ids=["literal", "short", "negative"])
def test_analyze_names_the_physical_line_of_a_bad_row(tmp_path, capsys, bad, fragment):
    """A bad row names the line it ends on, as a csv error does: after an id
    quoted across two lines, the third record is on line 4."""
    trace = tmp_path / "t.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG), "--input",
                 _write_tables(tmp_path, ['"a\nb",1,2,3,4', bad]), "--out-trace", str(trace)]) == 2
    _assert_one_error_line(capsys, f"line 4: {fragment}")
    assert not trace.exists()


def test_analyze_never_reads_a_row_past_max_rows(tmp_path, capsys):
    """Rows past max_rows are not read, so a malformed one there is no error."""
    cfg = _write_config(tmp_path, {**ANALYZE_CFG, "max_rows": 2})
    trace = tmp_path / "trace.csv"
    for bad in ("c,1,2", "c,1,-1,0,2", "c,x,1,1,1"):
        tables = _write_tables(tmp_path, ["a,1,2,3,4", "b,2,2,2,2", bad, "d,1,1,1,1"])
        assert main(["analyze", "--config", cfg, "--input", tables,
                     "--out-trace", str(trace)]) == 0
        assert [r["id"] for r in csv.DictReader(trace.open())] == ["a", "b"]
        assert json.loads(capsys.readouterr().out)["rows"] == 2


def test_analyze_late_error_writes_neither_output(tmp_path, capsys, monkeypatch):
    """A bad row in a later read-ahead block, after earlier blocks were tested
    and stepped, leaves the trace and the summary as they were."""
    # every row counts 1024 and a few tables: blocks of 4 rows
    monkeypatch.setattr(cli, "READ_AHEAD_ROW_TABLES", 1 << 10)
    monkeypatch.setattr(cli, "READ_AHEAD_TABLES", 4 << 10)
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    trace.write_text("old trace\n")
    summary.write_text("old summary\n")
    args = ["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG), "--out-trace",
            str(trace), "--out-summary", str(summary), "--input"]
    rows = _good_rows(30)
    assert main([*args, _write_tables(tmp_path, rows[:20] + ["x,1,-1,0,2"] + rows[20:])]) == 2
    _assert_one_error_line(capsys, "line 22:")
    assert (trace.read_text(), summary.read_text()) == ("old trace\n", "old summary\n")
    assert main([*args, _write_tables(tmp_path, rows)]) == 0
    assert len(trace.read_text().splitlines()) == 31 and json.loads(summary.read_text())["rows"] == 30
    monkeypatch.undo()  # one block of all 30 rows
    capsys.readouterr()
    one_block = tmp_path / "one.csv"
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG), "--out-trace",
                 str(one_block), "--input", _write_tables(tmp_path, rows)]) == 0
    assert one_block.read_bytes() == trace.read_bytes()  # the blocks change no output


# ids of the characters csv.writer quotes around, spaces, and any other text
_IDS = st.text(st.one_of(st.sampled_from(',"\r\n '), st.characters()), max_size=6)


@settings(max_examples=400)
@given(row_id=_IDS, t=st.integers(1, 10**9), floats=st.lists(st.floats(), min_size=4, max_size=4),
       reject=st.booleans())
def test_a_trace_line_is_what_csv_writer_writes(row_id, t, floats, reject):
    """A trace line is the row csv.writer writes for the same fields: the id
    quoted minimally, each float to 17 significant digits, CRLF at the end."""
    out = io.StringIO()
    csv.writer(out).writerow([t, row_id, *map(cli._fmt, floats), int(reject)])
    assert cli.TRACE_LINE % (t, cli._csv_field(row_id), *floats, reject) == out.getvalue()
    out = io.StringIO()
    csv.writer(out).writerow(["t", "id", "p", "alpha", "rho", "epsilon", "reject"])
    assert cli.TRACE_HEADER == out.getvalue()


@settings(max_examples=30)
@given(ids=st.lists(_IDS, min_size=1, max_size=12))
def test_analyze_quotes_the_ids_as_csv_writer_does(ids):
    """A trace over any ids is, byte for byte, the trace over plain ids with
    each id put back through csv.writer, and csv.reader reads its ids back."""
    cells = [row.split(",", 1)[1] for row in _good_rows(len(ids))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _write_config(tmp, ANALYZE_CFG)
        traces = []
        for name, row_ids in (("plain", [f"r{i}" for i in range(len(ids))]), ("drawn", ids)):
            tables, trace = tmp / f"{name}.csv", tmp / f"{name}-trace.csv"
            with tables.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "a", "b", "c", "d"])
                writer.writerows([row_id, *row.split(",")] for row_id, row in zip(row_ids, cells))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", "--config", cfg, "--input", str(tables),
                             "--out-trace", str(trace)]) == 0
            traces.append(trace.read_bytes().decode())
    plain, drawn = traces
    want = io.StringIO()
    writer = csv.writer(want)
    for i, row in enumerate(csv.reader(io.StringIO(plain, newline=""))):
        writer.writerow(row if i == 0 else [row[0], ids[i - 1], *row[2:]])
    assert drawn == want.getvalue()
    assert [row[1] for row in csv.reader(io.StringIO(drawn, newline=""))][1:] == ids


def test_analyze_memory_stays_within_the_cache_and_read_ahead_bounds(tmp_path, monkeypatch):
    """160 rows of distinct margins with 501 feasible tables each (about 4 MB
    of exact tests in all) peak within the cache's table budget and one
    read-ahead block, both patched small: neither keeps what it tested."""
    monkeypatch.setattr(discrete, "_CACHE_TABLES", 1 << 12)
    monkeypatch.setattr(cli, "READ_AHEAD_TABLES", 1 << 11)
    rows = [f"r{i},250,{250 + i},250,250" for i in range(160)]
    args = ["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG),
            "--out-trace", str(tmp_path / "t.csv"), "--input", _write_tables(tmp_path, rows)]
    discrete.fisher_margins(750, 500, 500)  # the lgamma table grows before tracing
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a cached table costs at most about 40 bytes, as does one of the block's
    # results, and a pass of 4096 cells and the rest of the run under 1.5 MB;
    # keeping every margin, in the cache or in one block, peaks near 4 MB
    assert peak < 40 * ((1 << 12) + (1 << 11) + 501) + (3 << 19), peak


def test_simulate_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "scenario": {"m": 40, "n_subjects": 10, "n_trials": 4, "seed": 1},
        "procedures": [{"name": "rho-ob"}, {"name": "rho-lord"}],
    })
    out = tmp_path / "report.csv"
    out_json = tmp_path / "report.json"
    code = main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(out_json)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["procedure"] for r in rows} == {"rho-ob", "rho-lord"}
    assert {r["metric"] for r in rows} == {"fwer", "mfdr", "power"}
    assert json.loads(out_json.read_text())
    assert json.loads(capsys.readouterr().out)["audits_ok"]


def test_simulate_sweep(tmp_path):
    cfg = _write_config(tmp_path, {
        "scenario": {"m": 30, "n_subjects": 8, "n_trials": 3},
        "procedures": [{"name": "rho-aob"}],
        "sweep": {"axis": "pi_a", "values": [0.2, 0.6]},
    })
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert {float(r["value"]) for r in rows} == {0.2, 0.6}


def test_simulate_rejects_fractional_kernel_bandwidth(tmp_path, capsys):
    small = {"m": 10, "n_trials": 1}
    for payload in (
        {"procedures": [{"name": "rho-ob"}], "sweep": {"axis": "h", "values": [2.5]}},
        {"procedures": [{"name": "rho-ob", "gamma_prime": {"family": "kernel", "h": 2.7}}]},
        {"procedures": [{"name": "rho-ob", "gamma_prime": {"family": "kernel", "h": True}}]},
    ):
        cfg = _write_config(tmp_path, {"scenario": small, **payload})
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2, payload
        _assert_one_error_line(capsys, "integer")
        assert not out.exists()


def test_simulate_outputs_are_all_or_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1},
                                   "procedures": [{"name": "ob"}]})
    out, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    out.write_text("old report\n")
    out_json.write_text("old json\n")
    # a JSON path that cannot be opened leaves the CSV report as it was
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(tmp_path / "missing" / "x.json")]) == 2
    _assert_one_error_line(capsys)
    assert out.read_text() == "old report\n"
    # a CSV path that is a directory leaves the JSON report as it was
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--out-json", str(out_json)]) == 2
    _assert_one_error_line(capsys)
    assert out_json.read_text() == "old json\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "r.csv", "r.json"]
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(out_json)]) == 0
    assert out.read_text().startswith("checkpoint,") and json.loads(out_json.read_text())


def test_analyze_outputs_are_all_or_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1"])
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    trace.write_text("old trace\n")
    summary.write_text("old summary\n")
    (tmp_path / "d").mkdir()
    # a summary path that cannot be opened, in a missing directory or being a
    # directory, leaves the trace as it was
    for bad in (tmp_path / "missing" / "s.json", tmp_path / "d"):
        assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(trace),
                     "--out-summary", str(bad)]) == 2
        _assert_one_error_line(capsys)
        assert trace.read_text() == "old trace\n"
    # a trace path that is a directory leaves the summary as it was
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace",
                 str(tmp_path / "d"), "--out-summary", str(summary)]) == 2
    _assert_one_error_line(capsys)
    assert summary.read_text() == "old summary\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "d", "summary.json", "tables.csv", "trace.csv"]
    assert list((tmp_path / "d").iterdir()) == []
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(trace),
                 "--out-summary", str(summary)]) == 0
    assert trace.read_text().startswith("t,id,") and json.loads(summary.read_text())["rows"] == 2


def test_simulate_standard_defaults():
    configs = parse_procedures([{"name": n} for n in ("ob", "rho-aob", "lord", "rho-alord")])
    assert all(c.alpha == 0.2 and c.lam == 0.5 for c in configs.values())
    # one default gamma, power law q=1.6, shared by every procedure
    gamma = configs["ob"].gamma
    assert gamma.kind == "power" and gamma.q == 1.6
    assert all(c.gamma is gamma for c in configs.values())
    # w0 = alpha / 2 for investing rules only
    assert [c.w0 for c in configs.values()] == [None, None, pytest.approx(0.1), pytest.approx(0.1)]
    # kernel bandwidth: 100 for the FWER family, 10 for investing; rewarded rules only
    assert configs["ob"].gamma_prime is None and configs["lord"].gamma_prime is None
    assert configs["rho-aob"].gamma_prime.h == 100
    assert configs["rho-alord"].gamma_prime.h == 10


@pytest.mark.parametrize("values", [[0.9, 0.9, 0.9], [2.0], [math.nan]])
def test_explicit_gamma_out_of_range_is_a_config_error(tmp_path, capsys, values):
    """An explicit gamma with mass above 1 or a non-finite value exits 2, in both
    commands, before any output is written."""
    gamma = {"family": "explicit", "values": values}
    cfg = _write_config(tmp_path, {**ANALYZE_CFG, "gamma": gamma})
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1", "c,5,0,0,5"])
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(trace),
                 "--out-summary", str(summary)]) == 2
    _assert_one_error_line(capsys, "spending values")
    cfg = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1},
                                   "procedures": [{"name": "ob", "gamma": gamma}]})
    out, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(out_json)]) == 2
    _assert_one_error_line(capsys, "spending values")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tables.csv"]


@pytest.mark.parametrize("key", ["gamma", "gamma_prime"])
@pytest.mark.parametrize("spec,fragment", [  # the ids keep the test names stable as messages change
    pytest.param({"family": "kernel", "h": 5, "q": 3},
                 "{key}: unknown key(s) q; a kernel spending spec takes family, h",
                 id="spec0-takes exactly the keys family, h"),
    pytest.param({"family": "jm", "q": 2},
                 "{key}: unknown key(s) q; a jm spending spec takes family",
                 id="spec1-takes exactly the keys family, got"),
    pytest.param({"family": "greedy", "values": [0.5]},
                 "{key}: unknown key(s) values; a greedy spending spec takes family",
                 id="spec2-takes exactly the keys family, got"),
    pytest.param({"family": "log", "q": 300}, "too large", id="spec3-too large"),
    pytest.param({"family": "log", "q": 1e5}, "too large", id="spec4-too large"),
    pytest.param({"family": "power", "q": "2"}, "{key}: q must be a number",
                 id="spec5-power spending q must be a number"),
    pytest.param({"family": "explicit", "values": "1"}, "must be a list of numbers",
                 id="spec6-must be a list of numbers"),
    pytest.param({"family": "explicit", "values": [0.5, "0.25"]},
                 "{key}: values[1] must be a number", id="spec7-value must be a number"),
    pytest.param({"family": "kernel"},
                 "{key}: missing key(s) h; a kernel spending spec takes family, h",
                 id="spec8-missing key"),
])
def test_bad_spending_spec_is_a_config_error(tmp_path, capsys, key, spec, fragment):
    """A spending spec with a key of another family, a log q whose normalizing
    constant overflows, or a string for a number exits 2 with one error line in
    both commands and writes nothing; the key used to be ignored, the q to end
    in a traceback, and a string q or values to run.  The message names the
    key path of the spec."""
    fragment = fragment.format(key=key)
    cfg = _write_config(tmp_path, {**ANALYZE_CFG, key: spec})
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1", "c,5,0,0,5"])
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    assert main(["analyze", "--config", cfg, "--input", tables, "--out-trace", str(trace),
                 "--out-summary", str(summary)]) == 2
    _assert_one_error_line(capsys, fragment)
    cfg = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1},
                                   "procedures": [{"name": "rho-ob", key: spec}]})
    out, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(out_json)]) == 2
    _assert_one_error_line(capsys, fragment)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tables.csv"]


@pytest.mark.parametrize("key", ["gamma", "gamma_prime"])
def test_bad_spec_of_a_later_entry_names_its_key_path(tmp_path, capsys, key):
    """An error in the spec of the second procedure entry names the entry by
    its index and the spec by its key."""
    cfg = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1}, "procedures": [
        {"name": "ob"}, {"name": "rho-ob", key: {"family": "kernel", "h": 5, "q": 2}}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    _assert_one_error_line(capsys, f"error: procedures[1].{key}: unknown key(s) q; a kernel "
                           "spending spec takes family, h")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("family", ["power", "log"])
@pytest.mark.parametrize("q", ["NaN", "Infinity"])
def test_non_finite_q_is_a_config_error(tmp_path, capsys, family, q):
    """A NaN or infinite q exits 2 with one error line and writes nothing; a NaN q
    used to run, write a trace of alpha = nan and exit 1 on the audit."""
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1", "c,5,0,0,5"])
    trace = tmp_path / "trace.csv"
    assert main(["analyze", "--input", tables, "--out-trace", str(trace),
                 "--set", "procedure=ob",
                 "--set", f'gamma={{"family":"{family}","q":{q}}}']) == 2
    _assert_one_error_line(capsys, "finite q > 1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tables.csv"]


def test_analyze_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    """A non-finite audit excess is written as null, not as Infinity."""
    monkeypatch.setattr(cli, "audit_fwer_budget",
                        lambda proc: AuditReport(ok=False, worst_excess=math.inf, worst_t=2,
                                                 n_checked=proc.t))
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1", "c,5,0,0,5"])
    out_summary = tmp_path / "summary.json"
    assert main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(tmp_path / "trace.csv"),
                 "--out-summary", str(out_summary)]) == 1
    for text in (capsys.readouterr().out, out_summary.read_text()):
        summary = _strict_json(text)
        assert summary["audit_ok"] is False
        assert summary["audit_worst_excess"] is None
        assert summary["audit_worst_t"] == 2


def test_simulate_json_report_is_strict_json(tmp_path):
    """With one trial per point the standard errors are NaN: the JSON report
    writes them as null, not as NaN, and the CSV keeps nan."""
    cfg = _write_config(tmp_path, {"scenario": {"m": 20, "n_trials": 1},
                                   "procedures": [{"name": "rho-ob"}]})
    out, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--out-json", str(out_json)]) == 0
    rows = _strict_json(out_json.read_text())
    assert [row["se"] for row in rows if row["metric"] != "fwer"] == [None, None]
    assert all(math.isfinite(row["estimate"]) for row in rows)
    csv_rows = csv.DictReader(out.read_text().splitlines())
    assert [row["se"] for row in csv_rows] == ["0", "nan", "nan"]


def test_analyze_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs each process about 20 ms and 2 MB to import; the exact test
    must not pull it in (np.unique would)."""
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,10,30,25,15", "c,150,250,180,220"])
    script = ("import sys\n"
              "from sure_omt.cli import main\n"
              f"code = main(['analyze', '--config', {cfg!r}, '--input', {tables!r},"
              f" '--out-trace', {str(tmp_path / 'trace.csv')!r}])\n"
              "assert code == 0, code\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("scenario,fragment", [
    ({"m": 10, "foo": 1}, "scenario: unknown key(s) foo"),
    (5, "scenario: must be an object, got 5")], ids=["unknown-key", "not-an-object"])
def test_bad_scenario_names_its_key(tmp_path, capsys, scenario, fragment):
    """An unknown scenario key, or a scenario that is not an object, exits 2
    with a message that names it and lists the keys a scenario takes."""
    cfg = _write_config(tmp_path, {"scenario": scenario, "procedures": [{"name": "ob"}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    _assert_one_error_line(capsys, fragment, "; scenario takes m, pi_a, n_subjects, p3, "
                           "p_null_low, p_null_mid, placement, seed, n_trials")


def test_simulate_bad_config(tmp_path, capsys):
    small = {"m": 10, "n_trials": 1}
    bad = [
        {"scenario": {"placement": "nope"}},
        {"sweep": {"axis": "bogus", "values": [1]}, "scenario": small},
        {"scenario": {"n_trials": 0}},
        {"scenario": {"n_subjects": -1}},
        {"sweep": {"axis": "pi_a"}, "scenario": small},                 # no values
        {"procedures": ["ob"], "scenario": small},
        {"procedures": [{"name": "ob", "alpha": 1.5}], "scenario": small},
        {"procedures": [{"name": "rho-ob", "gamma_prime": {"family": "kernel", "h": 0}}],
         "scenario": small},
        {"procedures": [{"name": "ob", "w0": 0.1}], "scenario": small},  # w0 on a FWER rule
        {"procedures": [{"name": "ob", "lamda": 0.1}], "scenario": small},  # unknown key
        {"procedures": [{"name": "rho-ob"}], "sweep": {"axis": "h", "values": [0]},
         "scenario": small},
        {"scenario": {"m": 10.0, "n_trials": 1}},                      # integer fields
        {"scenario": {"m": 10, "n_trials": 2.0}},
        {"scenario": {**small, "seed": 1.5}},
        {"sweep": {"axis": "N", "values": [10.0]}, "scenario": small},
        {"scenaro": {"m": 20, "n_trials": 1}},                         # unknown top-level keys
        {"sweeep": {"axis": "N", "values": [5]}},
        {"scenario": {**small, "seed": -1}},
        {"sweep": {}, "scenario": small},                              # incomplete sweeps
        {"sweep": {"values": [5]}, "scenario": small},
        {"sweep": {"axis": "N", "values": [5], "step": 1}, "scenario": small},
        {"sweep": [], "scenario": small},
    ]
    out = tmp_path / "r.csv"
    for payload in bad:
        cfg = _write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2, payload
        _assert_one_error_line(capsys)
        assert not out.exists()
    # a procedure listed twice, and --set items that are not key=value or that
    # set a key under a number: the message names the cause
    for payload, sets, fragment in [
            ({"procedures": [{"name": "ob"}, {"name": "ob"}]}, [],
             "procedures[1]: ob is listed twice"),
            ({}, ["foo"], "--set expects key=value, got 'foo'"),
            ({}, ["gamma_prime=5", "gamma_prime.h=3"],
             "--set gamma_prime.h: gamma_prime is not an object")]:
        cfg = _write_config(tmp_path, {"scenario": small, **payload})
        argv = ["simulate", "--config", cfg, "--out", str(out)]
        assert main([*argv, *(arg for item in sets for arg in ("--set", item))]) == 2, sets
        _assert_one_error_line(capsys, fragment)
        assert not out.exists()


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_file_arguments_naming_one_file_are_rejected(tmp_path, capsys, monkeypatch):
    """Two file arguments of one command that name the same file, however
    spelled, exit 2 before any file is written: no output garbles another or
    replaces the input."""
    monkeypatch.chdir(tmp_path)
    sim = _write_config(tmp_path, {"scenario": {"m": 10, "n_trials": 1},
                                   "procedures": [{"name": "ob"}]}, "sim.json")
    ana = _write_config(tmp_path, ANALYZE_CFG, "analyze.json")
    tables = _write_tables(tmp_path, ["r1,3,7,9,1", "r2,5,5,4,6"], name="t.csv")
    (tmp_path / "r.csv").write_text("old report\n")
    (tmp_path / "p.csv").write_text("t,p,alpha\n1,0.5,0.1\n")
    os.symlink("t.csv", tmp_path / "link.csv")
    before = _files(tmp_path)
    for argv in (
        ["simulate", "--config", sim, "--out", "r.csv", "--out-json", "r.csv"],
        ["simulate", "--config", sim, "--out", "r.csv", "--out-json", "sub/../r.csv"],
        ["simulate", "--config", sim, "--out", sim],
        ["analyze", "--config", ana, "--input", tables,
         "--out-trace", "s.csv", "--out-summary", "s.csv"],
        ["analyze", "--config", ana, "--input", tables, "--out-trace", tables],
        ["analyze", "--config", ana, "--input", tables, "--out-trace", "link.csv"],
        ["analyze", "--config", ana, "--input", "t.csv", "--out-trace", "x.csv",
         "--out-summary", ana],
        ["plotdata", "--trace", "p.csv", "--out", str(tmp_path / "p.csv")],
    ):
        assert main(argv) == 2, argv
        _assert_one_error_line(capsys, "name the same file")
        assert _files(tmp_path) == before, argv
    monkeypatch.setenv(CONFIG_ENV_VAR, sim)  # a config path from the environment counts too
    assert main(["simulate", "--out", sim]) == 2
    _assert_one_error_line(capsys, "name the same file")
    assert _files(tmp_path) == before


def test_missing_config_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "none.json"),
                 "--input", "x", "--out-trace", "y"]) == 2


def test_plotdata_raw_and_loglog(tmp_path):
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    tables = _write_tables(tmp_path, ["a,3,0,0,3", "b,1,1,1,1"])
    trace = tmp_path / "trace.csv"
    assert main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)]) == 0

    raw = tmp_path / "raw.csv"
    assert main(["plotdata", "--trace", str(trace), "--out", str(raw)]) == 0
    rows = list(csv.DictReader(raw.open()))
    assert len(rows) == 4  # 2 steps x (p, alpha)
    assert {r["series"] for r in rows} == {"p", "alpha"}

    ll = tmp_path / "ll.csv"
    assert main(["plotdata", "--trace", str(trace), "--transform", "loglog",
                 "--out", str(ll)]) == 0
    rows = list(csv.DictReader(ll.open()))
    by = {(r["t"], r["series"]): r["value"] for r in rows}
    # p = 0.1 at t=1 maps to -log(-log(0.1)); p = 1 at t=2 has no image
    assert float(by[("1", "p")]) == pytest.approx(-math.log(-math.log(0.1)), rel=1e-6)
    assert by[("2", "p")] == ""


def test_plotdata_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    out = tmp_path / "o.csv"
    bad.write_text("x,y\n1,2\n")
    assert main(["plotdata", "--trace", str(bad), "--out", str(out)]) == 2
    bad.write_bytes(b"t,p,alpha\n1,\xff,0.1\n")
    assert main(["plotdata", "--trace", str(bad), "--out", str(out)]) == 2
    assert main(["plotdata", "--trace", str(tmp_path / "none.csv"),
                 "--out", str(out)]) == 2
    capsys.readouterr()
    # a cell that is not a number, and a row without an alpha cell
    for text in ("t,p,alpha\n1,0.5,0.1\n2,abc,0.1\n", "t,p,alpha\n1,0.5,0.1\n2,0.5\n"):
        bad.write_text(text)
        for transform in ("raw", "loglog"):
            assert main(["plotdata", "--trace", str(bad), "--transform", transform,
                         "--out", str(out)]) == 2
            _assert_one_error_line(capsys, "line 3")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


# a field past csv.field_size_limit(), 131072 characters unless raised
LONG_FIELD = "x" * 200_000


@pytest.mark.parametrize("header,rows,line", [
    ("id,a,b,c,d", ["a,1,2,3,4", f"{LONG_FIELD},1,2,3,4"], 3),  # an id
    (f"id,a,b,c,{LONG_FIELD}", ["a,1,2,3,4"], 1),                # a header field
], ids=["id", "header"])
def test_an_oversized_table_field_is_an_input_error(tmp_path, capsys, header, rows, line):
    """A table field past csv's size limit exits 2 with one error line naming
    its line, and writes neither output; it used to end in a csv.Error
    traceback (exit 1, the code of an audit violation)."""
    tables = _write_tables(tmp_path, rows, header=header)
    assert main(["analyze", "--config", _write_config(tmp_path, ANALYZE_CFG), "--input", tables,
                 "--out-trace", str(tmp_path / "t.csv"),
                 "--out-summary", str(tmp_path / "s.json")]) == 2
    _assert_one_error_line(capsys, f"line {line}: field larger than field limit")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tables.csv"]


@pytest.mark.parametrize("text,line", [
    (f"t,p,alpha\n1,0.5,0.1\n2,{LONG_FIELD},0.1\n", 3),  # a cell
    (f"t,p,alpha,{LONG_FIELD}\n1,0.5,0.1\n", 1),          # a header field
], ids=["cell", "header"])
def test_an_oversized_trace_field_is_an_input_error(tmp_path, capsys, text, line):
    """A trace field past csv's size limit exits 2 with one error line naming
    its line, and writes no output; it used to end in a csv.Error traceback."""
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["plotdata", "--trace", str(trace), "--out", str(tmp_path / "o.csv")]) == 2
    _assert_one_error_line(capsys, f"line {line}: field larger than field limit")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


def test_analyze_of_simulated_stream(tmp_path):
    """The simulator's tables, written as analyze's input, give its p-values."""
    stream = generate_trial(ScenarioConfig(m=25, n_subjects=12, pi_a=0.4), 0)
    tables = _write_tables(
        tmp_path, [",".join(map(str, (t, *tab))) for t, tab in enumerate(stream.tables, 1)])
    cfg = _write_config(tmp_path, ANALYZE_CFG)
    trace = tmp_path / "trace.csv"
    assert main(["analyze", "--config", cfg, "--input", tables,
                 "--out-trace", str(trace)]) == 0
    out = list(csv.DictReader(trace.open()))
    assert [float(r["p"]) for r in out] == stream.pvals
