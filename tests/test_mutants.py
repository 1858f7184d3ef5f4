"""The mutation record stays applicable: each mutant's old text occurs once in
its file, so the runner (``python tests/mutants.py``) can still apply it."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_mutant_old_text_occurs_once(mutant):
    text = (mutants.ROOT / mutants.PACKAGE / mutant.file).read_text()
    assert mutants.mutated(mutant, text) != text
    assert mutant.tests and all(t.startswith("tests/test_") and "::" in t for t in mutant.tests)


def test_mutant_ids_are_distinct():
    assert len({m.id for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
