"""Monte-Carlo estimation of error rates and power, and the report that holds them."""

from __future__ import annotations

import csv
import errno
import json
import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class TrialOutcome:
    """Reject flags and ground-truth labels (True = alternative) of one trial,
    or of a block with one row per trial."""

    rejects: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.rejects = np.asarray(self.rejects, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.rejects.shape != self.labels.shape:
            raise ValueError("rejects and labels must have equal shapes")


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float
    n_trials: int


def _stack(trials: Sequence[TrialOutcome]) -> tuple[np.ndarray, np.ndarray]:
    """The reject flags and labels of trials and blocks of one stream length,
    one row per trial."""
    rejects = np.vstack([tr.rejects for tr in trials] or [np.empty((0, 0), bool)])
    if not len(rejects):
        raise ValueError("need at least one trial")
    return rejects, np.vstack([tr.labels for tr in trials])


def estimate_fwer(trials: Sequence[TrialOutcome], T: int) -> Estimate:
    """Fraction of trials with at least one false rejection by time T."""
    rejects, labels = _stack(trials)
    n = len(rejects)
    hits = int(np.count_nonzero((rejects[:, :T] & ~labels[:, :T]).any(axis=1)))
    p = hits / n
    return Estimate(p, math.sqrt(p * (1.0 - p) / n), n)


def estimate_mfdr(trials: Sequence[TrialOutcome], T: int) -> Estimate:
    """Ratio of mean false discoveries to mean (1 or more) discoveries.

    The standard error is a delta-method approximation for the ratio of
    means.
    """
    rejects, labels = _stack(trials)
    n = len(rejects)
    x = (rejects[:, :T] & ~labels[:, :T]).sum(axis=1).astype(float)
    y = np.maximum(1, rejects[:, :T].sum(axis=1)).astype(float)
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    if n > 1:
        sxx = x.var(ddof=1)
        syy = y.var(ddof=1)
        sxy = float(np.cov(x, y, ddof=1)[0, 1])
        var = (sxx - 2.0 * ratio * sxy + ratio * ratio * syy) / (n * ybar * ybar)
        se = math.sqrt(max(0.0, var))
    else:
        se = float("nan")
    return Estimate(ratio, se, n)


def estimate_power(trials: Sequence[TrialOutcome], T: int) -> Estimate:
    """Mean proportion of alternatives detected by time T."""
    rejects, labels = _stack(trials)
    n = len(rejects)
    arr = (rejects[:, :T] & labels[:, :T]).sum(axis=1) / np.maximum(1, labels.sum(axis=1))
    se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return Estimate(float(arr.mean()), se, n)


@contextmanager
def open_atomic(path, newline: str | None = None):
    """Write ``path`` through a temporary file beside it, which replaces
    ``path`` only when the block finishes and is removed otherwise."""
    if os.path.isdir(path):  # fail before writing, not at the replace
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@dataclass
class EvalReport:
    """Flat grid of Monte-Carlo estimates, exportable as CSV or JSON."""

    rows: list[dict] = field(default_factory=list)
    audits_ok: bool = True

    def add(self, procedure: str, metric: str, est: Estimate, checkpoint: int, **keys):
        row = {"procedure": procedure, "metric": metric, "estimate": est.value,
               "se": est.se, "n_trials": est.n_trials, "checkpoint": checkpoint}
        row.update(keys)
        self.rows.append(row)

    def write(self, csv_path, json_path=None):
        """Write the report as CSV and, given ``json_path``, as JSON too.

        A non-finite float is written as ``nan`` or ``inf`` in the CSV and as
        null in the JSON.  Both are written to temporary files first, so
        neither file is replaced if either cannot be opened or written.  The
        two renames that follow are separate steps: the JSON file is renamed
        first.
        """
        fields = sorted({k for r in self.rows for k in r})
        with ExitStack() as stack:
            fh = stack.enter_context(open_atomic(csv_path, newline=""))
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for r in self.rows:
                out = dict(r)
                for k, v in out.items():
                    if isinstance(v, float):
                        out[k] = format(v, ".17g")
                writer.writerow(out)
            if json_path:
                # NaN and inf are not JSON: a standard error of one trial is NaN
                rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                         for k, v in r.items()} for r in self.rows]
                json.dump(rows, stack.enter_context(open_atomic(json_path)), indent=2,
                          allow_nan=False)

    def to_csv(self, path):
        """The CSV alone (kept for ``bench/worker.py``; ``write`` does this)."""
        self.write(path)
