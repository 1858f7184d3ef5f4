"""``sure-omt`` keeps its recorded output bits (see golden.py)."""

import json

import pytest

from sure_omt.simulate import BATCH_COLUMNS

from golden import (ANALYZE_CASES, CASES, GOLDEN_PATH, STREAM_CASES, WIDE_CASE,
                    analyze_digests, plotdata_digests, simulate_digests, stream_digests,
                    stream_trial, versions, write_tables)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _check(what: str, want: dict, got: dict) -> None:
    differ = [kind for kind in want if got[kind] != want[kind]]
    assert not differ, (f"{what}: {', '.join(differ)} differ from the golden digest "
                        f"(recorded with {GOLDEN['versions']}, running {versions()})")


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "tables.csv"
    write_tables(path)
    return path


def test_golden_covers_every_case():
    assert sorted(GOLDEN["simulate"]) == sorted(CASES)
    assert sorted(GOLDEN["analyze"]) == sorted(ANALYZE_CASES)
    assert sorted(GOLDEN["stream"]) == sorted(STREAM_CASES)


def test_wide_case_spans_several_chunks():
    """Its trials do not fit in one of the simulator's chunks of trials."""
    case = CASES[WIDE_CASE]
    assert case["scenario"]["n_trials"] > BATCH_COLUMNS // len(case["procedures"])


def test_tables_hold_groups_of_10_to_500(tables):
    rows = [list(map(int, line.split(",")[1:])) for line in tables.read_text().splitlines()[1:]]
    sizes = [n for a, b, c, d in rows for n in (a + b, c + d)]
    assert len(rows) == 300 and min(sizes) >= 10 and max(sizes) == 500


@pytest.fixture(scope="module")
def stream():
    return stream_trial()


@pytest.mark.parametrize("case", CASES)
def test_simulate_digests(case):
    _check(f"simulate case {case!r}", GOLDEN["simulate"][case], simulate_digests(CASES[case]))


@pytest.mark.parametrize("case", ANALYZE_CASES)
def test_analyze_digests(case, tables):
    _check(f"analyze case {case!r}", GOLDEN["analyze"][case],
           analyze_digests(ANALYZE_CASES[case], tables))


def test_plotdata_digests(tables):
    _check("plotdata", GOLDEN["plotdata"], plotdata_digests(tables))


@pytest.mark.parametrize("case", STREAM_CASES)
def test_stream_digests(case, stream):
    _check(f"stream case {case!r}", GOLDEN["stream"][case],
           stream_digests(STREAM_CASES[case], stream))
