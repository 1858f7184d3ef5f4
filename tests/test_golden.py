"""``sure-omt simulate`` keeps its recorded output bits (see golden.py)."""

import json

import pytest

from sure_omt.procedures import BATCH_COLUMNS, RULES

from golden import CASES, GOLDEN_PATH, WIDE_CASE, digests, versions

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(GOLDEN["simulate"]) == sorted(CASES)


def test_wide_case_spans_several_chunks():
    """Its trials do not fit in one chunk of the batch engine's column block."""
    stepped = sum(rule.investing or rule.rewarded for rule in RULES.values())
    assert CASES[WIDE_CASE]["scenario"]["n_trials"] > BATCH_COLUMNS // stepped


@pytest.mark.parametrize("case", CASES)
def test_simulate_digests(case):
    want = GOLDEN["simulate"][case]
    got = digests(CASES[case])
    for kind in ("csv", "json"):
        assert got[kind] == want[kind], (
            f"simulate {kind} of case {case!r} differs from the golden digest "
            f"(recorded with {GOLDEN['versions']}, running {versions()})")
