"""``src/`` holds only what the program runs: every public top-level function
and class is used somewhere in the package or exported by ``sure_omt.__all__``.
Oracles and helpers only the tests need live in ``tests/``."""

import ast
import pathlib

import sure_omt

SRC = pathlib.Path(sure_omt.__file__).parent
# unused in the package, yet kept
KEPT = {
    "generate_trial": "bench/worker.py builds its stream inputs and replays with it",
    "run_trials": "the README documents it as the way to run one scenario",
}


def _unused_public_names() -> list[str]:
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(name for name in defined if name not in used | set(sure_omt.__all__))


def test_src_defines_no_unused_public_name():
    unused = _unused_public_names()
    assert unused == sorted(KEPT), (
        f"public names nothing in src/ uses: {sorted(set(unused) - set(KEPT))} (move test-only "
        f"code to tests/); kept names now used: {sorted(set(KEPT) - set(unused))}")
