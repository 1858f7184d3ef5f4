"""The config reader's contract.

The README's config reference lists exactly the keys of the reader's key
lists, and the command line answers any config built from those lists, valid
or with one mutation, and any bytes as a table or trace CSV, with exit 0, 1
or 2 and never a traceback: exit 2 prints one ``error:`` line and leaves no
file behind, and exit 1 comes only with a failed audit in the summary.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
from itertools import chain

from hypothesis import given, settings, strategies as st

from sure_omt import cli
from sure_omt.procedures import RULES
from sure_omt.simulate import PLACEMENTS, SWEEP_AXES
from sure_omt.spending import SPEC_KEYS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_reference_lists_the_reader_keys():
    section = README.read_text().split("### Config reference")[1].split("\n### ")[0]
    want = [key for required, optional in (cli.KEYS["analyze"], cli.KEYS["simulate"])
            for key in (*required, *optional)]
    for kind in ("procedures[i]", "scenario", "sweep"):
        want += [f"{kind}.{key}" for key in chain(*cli.KEYS[kind])]
    want += [f"<spec>.{key}" for key in dict.fromkeys(("family", *chain(*SPEC_KEYS.values())))]
    assert sorted(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == sorted(want)


# valid values, small enough for a run in milliseconds: m <= 10, n_trials <= 2,
# and a few q values (a new log q costs a sum over 10^6 terms)
SPEC_VALUES = {"q": st.sampled_from([1.6, 2.0]), "h": st.sampled_from([1, 5]),
               "values": st.just([0.5, 0.25])}
SPECS = st.sampled_from(sorted(SPEC_KEYS)).flatmap(lambda family: st.fixed_dictionaries(
    {"family": st.just(family), **{key: SPEC_VALUES[key] for key in SPEC_KEYS[family]}}))
VALUES = {
    "alpha": st.sampled_from([0.05, 0.2]), "lambda": st.sampled_from([0.0, 0.5]),
    "w0": st.just(0.02), "gamma": SPECS, "gamma_prime": SPECS, "max_rows": st.sampled_from([0, 2]),
    "m": st.integers(1, 10), "pi_a": st.sampled_from([0.0, 0.3, 1.0]), "n_subjects": st.integers(0, 9),
    "p3": st.sampled_from([0.4, 0.9]), "p_null_low": st.just(0.01), "p_null_mid": st.just(0.1),
    "placement": st.sampled_from(PLACEMENTS), "seed": st.integers(0, 3), "n_trials": st.integers(1, 2),
}
SWEEP_VALUES = {"placement": ["B", "E"], "pi_a": [0.1, 0.5], "N": [3, 5], "p3": [0.4],
                "lambda": [0.0, 0.5], "h": [2, 3]}
WRONG = st.sampled_from(["x", True, None, [1], math.nan, 10**20])
# keys whose absence falls back to the 500-step, 1000-trial default scenario
SLOW_IF_DROPPED = {"scenario", "m", "n_trials"}


def _objects(node):
    """Every JSON object in ``node``, outermost first."""
    if isinstance(node, dict):
        yield node
    for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        yield from _objects(child)


@st.composite
def _entries(draw, kind):
    """A procedure entry of ``kind`` with a random subset of the keys its rule takes."""
    (name_key,), optional = cli.KEYS[kind]
    name = draw(st.sampled_from(sorted(RULES)))
    rule = RULES[name]
    takes = {"lambda": rule.adaptive, "w0": rule.investing, "gamma_prime": rule.rewarded}
    # analyze fills in no w0 or gamma_prime
    needed = {key for key in ("w0", "gamma_prime") if takes[key] and kind == "analyze"}
    entry = {name_key: name}
    for key in optional:
        if takes.get(key, True) and (key in needed or draw(st.booleans())):
            entry[key] = draw(VALUES[key])
    return entry


@st.composite
def _simulate_configs(draw):
    assert set(SWEEP_VALUES) == set(SWEEP_AXES)
    scenario = {key: draw(VALUES[key]) for key in cli.KEYS["scenario"][1]
                if key in ("m", "n_trials") or draw(st.booleans())}
    config = {"scenario": scenario}
    if draw(st.booleans()):
        config["procedures"] = draw(st.lists(_entries("procedures[i]"), min_size=1, max_size=2,
                                             unique_by=lambda entry: entry["name"]))
    if draw(st.booleans()):
        axis = draw(st.sampled_from(SWEEP_AXES))
        config["sweep"] = {"axis": axis, "values": SWEEP_VALUES[axis]}
    return config


@st.composite
def _mutated(draw, config):
    """``config``, or a copy with one key dropped, added or given a wrong value."""
    config = json.loads(json.dumps(config))
    how = draw(st.sampled_from(["none", "drop", "add", "wrong"]))
    node = draw(st.sampled_from(list(_objects(config))))
    keys = sorted(node.keys() - SLOW_IF_DROPPED if how == "drop" else node)
    if how == "add" or (how != "none" and not keys):
        every_key = sorted({*chain(*chain(*cli.KEYS.values())), *chain(*SPEC_KEYS.values())})
        node[draw(st.sampled_from(["bogus", *every_key]))] = draw(st.one_of(WRONG, st.just({})))
    elif how == "drop":
        del node[draw(st.sampled_from(keys))]
    elif how == "wrong":
        node[draw(st.sampled_from(keys))] = draw(WRONG)
    return config


def _run(argv, tmp, inputs, summary_key=None):
    """Run the command line and check its contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()
        assert sorted(os.listdir(tmp)) == sorted(inputs)
    if code == 1:
        assert summary_key is not None and json.loads(out.getvalue())[summary_key] is False


def _write(tmp, name, data) -> str:
    path = os.path.join(tmp, name)
    with open(path, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else json.dumps(data).encode())
    return path


@settings(max_examples=300)
@given(config=_simulate_configs().flatmap(_mutated))
def test_simulate_config_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--config", _write(tmp, "cfg.json", config),
                "--out", os.path.join(tmp, "r.csv"), "--out-json", os.path.join(tmp, "r.json")]
        _run(argv, tmp, ["cfg.json"], "audits_ok")


TOKENS = ["0", "1", "3", "-1", "x", "", "2.5", "nan", str(10**20)]
ROWS = st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(",".join), max_size=4)


def _csv(header: str):
    """Random bytes, or ``header`` and rows of random cells."""
    return st.one_of(st.binary(max_size=60),
                     ROWS.map(lambda rows: "\n".join([header, *rows]).encode()))


@settings(max_examples=300)
@given(config=_entries("analyze").flatmap(_mutated), tables=_csv("id,a,b,c,d"))
def test_analyze_config_and_table_contract(config, tables):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["analyze", "--config", _write(tmp, "cfg.json", config),
                "--input", _write(tmp, "tables.csv", tables),
                "--out-trace", os.path.join(tmp, "t.csv"), "--out-summary", os.path.join(tmp, "s.json")]
        _run(argv, tmp, ["cfg.json", "tables.csv"], "audit_ok")


@settings(max_examples=200)
@given(trace=_csv("t,id,p,alpha"), transform=st.sampled_from(["raw", "loglog"]))
def test_plotdata_trace_contract(trace, transform):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["plotdata", "--trace", _write(tmp, "trace.csv", trace),
                "--transform", transform, "--out", os.path.join(tmp, "p.csv")]
        _run(argv, tmp, ["trace.csv"])
