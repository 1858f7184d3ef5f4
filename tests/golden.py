"""Golden sha256 digests of ``sure-omt simulate`` outputs.

Each case runs the CLI with all 9 procedures on their standard configs and
hashes the report CSV and JSON.  ``golden_simulate.json`` holds the digests
and the Python and numpy versions they were made with; ``test_golden.py``
compares against it.  Regenerate it only on purpose, with

    PYTHONPATH=src python tests/golden.py

and say in CHANGES.md which digest changed and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from sure_omt.cli import main
from sure_omt.procedures import RULES

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_simulate.json")
PROCEDURES = [{"name": name} for name in RULES]
# the case run wide enough that the batch engine cuts its trials into chunks
WIDE_CASE = "wide"


def _case(seed, n_trials=20, axis=None, values=None):
    config = {"scenario": {"m": 60, "n_trials": n_trials, "seed": seed},
              "procedures": PROCEDURES}
    if axis is not None:
        config["sweep"] = {"axis": axis, "values": values}
    return config


CASES = {
    "none": _case(11),
    "placement": _case(12, axis="placement", values=["B", "E", "BM", "BE", "ME", "Random"]),
    "pi_a": _case(13, axis="pi_a", values=[0.0, 0.3, 0.8]),
    "N": _case(14, axis="N", values=[0, 10, 40]),
    "p3": _case(15, axis="p3", values=[0.2, 0.6]),
    "lambda": _case(16, axis="lambda", values=[0.0, 0.3, 0.7]),
    "h": _case(17, axis="h", values=[1, 10, 100]),
    WIDE_CASE: _case(18, n_trials=400),
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(case: dict) -> dict[str, str]:
    """The sha256 of the CSV and the JSON that ``sure-omt simulate`` writes for ``case``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "config.json").write_text(json.dumps(case))
        code = main(["simulate", "--config", str(root / "config.json"),
                     "--out", str(root / "report.csv"), "--out-json", str(root / "report.json")])
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")
        return {kind: hashlib.sha256((root / f"report.{kind}").read_bytes()).hexdigest()
                for kind in ("csv", "json")}


if __name__ == "__main__":
    golden = {"versions": versions(),
              "simulate": {name: digests(case) for name, case in CASES.items()}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
