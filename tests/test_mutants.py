"""The mutation record stays applicable: each mutant's old text occurs once in
its file, so the runner (``python tests/mutants.py``) can still apply it, and
each test it names is defined in the file it names."""

import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_mutant_old_text_occurs_once(mutant):
    text = (mutants.ROOT / mutants.PACKAGE / mutant.file).read_text()
    assert mutants.mutated(mutant, text) != text
    assert mutant.tests and all(t.startswith("tests/test_") and "::" in t for t in mutant.tests)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_mutant_tests_are_defined(mutant):
    """A renamed or deleted test fails here, not only in a mutation run, where
    pytest stops on the missing name with a usage error (exit 4)."""
    for node_id in mutant.tests:
        path, name = node_id.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defined, node_id


def test_mutant_ids_are_distinct():
    assert len({m.id for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
