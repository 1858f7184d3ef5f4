"""``src/`` holds only what the program runs: every public top-level function
and class is used somewhere in the package or exported by ``sure_omt.__all__``,
and every public method of a public class is called somewhere in the package
(a property read).  Oracles and helpers only the tests need live in ``tests/``."""

import ast
import pathlib

import sure_omt

SRC = pathlib.Path(sure_omt.__file__).parent
# unused in the package, yet kept
KEPT = {
    "generate_trial": "bench/worker.py builds its stream inputs and replays with it",
    "run_trials": "the README documents it as the way to run one scenario",
    "EvalReport.to_csv": "bench/worker.py writes its report with it",
    "SpendingSequence.gamma": "bench/worker.py times one gamma lookup with it",
    "OnlineProcedure.run": "the README documents it as the way to step through pairs",
}


def _is_property(method: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in method.decorator_list)


def _unused_public_names() -> list[str]:
    """The public names nothing in src/ uses: a function or class by name, and
    a method, named ``Class.method``, by a call of the attribute (a property by
    any read of it)."""
    defined, used, called = [], set(), set()  # each defined name with the uses it needs
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append((own, used))
            if isinstance(stmt, ast.ClassDef) and not own.startswith("_"):
                defined += [(f"{own}.{f.name}", used if _is_property(f) else called)
                            for f in stmt.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not f.name.startswith("_")]
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return sorted(name for name, uses in defined
                  if name.rpartition(".")[2] not in uses and name not in sure_omt.__all__)


def test_src_defines_no_unused_public_name():
    unused = _unused_public_names()
    assert unused == sorted(KEPT), (
        f"public names nothing in src/ uses: {sorted(set(unused) - set(KEPT))} (move test-only "
        f"code to tests/); kept names now used: {sorted(set(KEPT) - set(unused))}")


def _private_imports() -> list[str]:
    """``module: name`` for each private name a module of src/ imports from
    another module of the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            own = isinstance(node, ast.ImportFrom) and (node.level or node.module == "sure_omt"
                                                        or node.module.startswith("sure_omt."))
            if own:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_src_imports_no_private_name_of_another_module():
    """A name one module shares with another is public: a private import ties the
    importer to what the owner may change without notice."""
    assert _private_imports() == []
