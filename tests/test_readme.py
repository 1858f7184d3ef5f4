"""README's code references resolve: each inline code span that starts with a
module of the package, such as ``discrete.MAX_GROUP`` or
``simulate.run_sweep(points)``, names attributes that exist, and each test
file or test function README cites exists, so a renamed constant or test fails
here instead of leaving README stale."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ("cli", "core", "discrete", "evaluate", "procedures", "simulate", "spending")


def _spans() -> list[str]:
    """The inline code spans outside the fenced blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    return re.findall(r"`([^`]+)`", text)


def _references() -> set[str]:
    """The dotted name each code span starts with, when its first part is a
    module of the package."""
    dotted = re.compile(rf"(?:{'|'.join(MODULES)})(?:\.\w+)+")
    return {m.group() for m in map(dotted.match, _spans()) if m}


def _resolves(reference: str) -> bool:
    module, *names = reference.split(".")
    obj = importlib.import_module(f"sure_omt.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_code_references_resolve():
    references = _references()
    assert {"discrete.MAX_GROUP", "simulate.run_sweep", "cli.READ_AHEAD_TABLES"} <= references
    assert [r for r in sorted(references) if not _resolves(r)] == []


def test_readme_test_references_resolve():
    """Each ``tests/*.py`` span is a file, and each bare ``test_*`` span a
    top-level function of some ``tests/test_*.py``."""
    spans = set(_spans())
    paths = {s for s in spans if re.fullmatch(r"tests/\w+\.py", s)}
    names = {s for s in spans if re.fullmatch(r"test_\w+", s)}
    assert {"tests/test_golden.py", "tests/test_readme.py"} <= paths
    assert "test_analyze_of_simulated_stream" in names
    assert [p for p in sorted(paths) if not (ROOT / p).is_file()] == []
    defined = {node.name for path in (ROOT / "tests").glob("test_*.py")
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert sorted(names - defined) == []
