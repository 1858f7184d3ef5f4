"""README's code references resolve: each inline code span that starts with a
module of the package, such as ``discrete.MAX_GROUP`` or
``simulate.run_sweep(points)``, names attributes that exist, so a renamed
constant fails here instead of leaving README stale."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "core", "discrete", "evaluate", "procedures", "simulate", "spending")


def _references() -> set[str]:
    """The dotted name each inline code span outside the fenced blocks starts
    with, when its first part is a module of the package."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    dotted = re.compile(rf"(?:{'|'.join(MODULES)})(?:\.\w+)+")
    return {m.group() for m in map(dotted.match, re.findall(r"`([^`]+)`", text)) if m}


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
