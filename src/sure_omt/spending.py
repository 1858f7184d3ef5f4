"""Spending-sequence families: nonnegative sequences with total mass <= 1.

The same type serves both the base spending sequence (how the error budget
is scheduled over time) and the reward spending sequence (how collected
rewards are redistributed; the rectangular kernel spreads them uniformly
over a window of length h).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

SUM_SLACK = 1e-9
# terms the normalizing constants sum directly; an analytic tail adds the rest
POWER_NORM_TERMS = 100_000
LOG_NORM_TERMS = JM_NORM_TERMS = 1_000_000
# each normalizing constant is computed once per q (callers pass it as a
# float): a sum over up to 10^6 terms costs tens of milliseconds


@functools.lru_cache(maxsize=64)
def _power_norm(q: float) -> float:
    """Normalizing constant sum_{t>=1} t^-q via truncated sum + Euler-Maclaurin tail.

    Relative error well below 1e-10 for q in (1, 10].
    """
    ks = np.arange(1, POWER_NORM_TERMS + 1, dtype=float)
    partial = float(np.sum(ks ** -q))
    a = float(POWER_NORM_TERMS + 1)
    tail = a ** (1 - q) / (q - 1) + 0.5 * a ** -q + (q / 12.0) * a ** (-q - 1)
    return partial + tail


def _log_family_term(t: float, q: float) -> float:
    """1/((t+1) log^q(t+1)), which reads 0 where its denominator overflows a float."""
    try:
        return 1.0 / ((t + 1.0) * math.log(t + 1.0) ** q)
    except OverflowError:
        return 0.0


@functools.lru_cache(maxsize=64)
def _log_norm(q: float) -> float:
    """sum_{t>=1} 1/((t+1) log^q(t+1)); truncated sum + integral tail + half term.

    From q of about 270.3 the last term's log^q overflows a float, and q is
    rejected; below that, a term whose denominator overflows reads 0.
    """
    a = float(LOG_NORM_TERMS + 1)
    try:
        math.log(a + 1.0) ** q  # the last term's log^q
    except OverflowError:
        raise ValueError(f"log-family q = {q!r} is too large: its normalizing constant "
                         "overflows a float") from None
    tail = math.log(a + 1.0) ** (1 - q) / (q - 1) + 0.5 * _log_family_term(a, q)
    ks = np.arange(1.0, LOG_NORM_TERMS + 1.0)
    with np.errstate(over="ignore"):
        partial = float(np.sum(1.0 / ((ks + 1.0) * np.log(ks + 1.0) ** q)))
    return partial + tail


def _jm_term(t: float) -> float:
    return math.log(t + 1.0) / ((t + 1.0) * math.exp(math.sqrt(math.log(t + 1.0))))


@functools.cache
def _jm_norm() -> float:
    """Slowly converging series; the tail integral is exact under u = sqrt(log(x+1))."""
    ks = np.arange(1.0, JM_NORM_TERMS + 1.0)
    logs = np.log(ks + 1.0)
    partial = float(np.sum(logs / ((ks + 1.0) * np.exp(np.sqrt(logs)))))
    a = float(JM_NORM_TERMS + 1)
    u0 = math.sqrt(math.log(a + 1.0))
    tail = 2.0 * math.exp(-u0) * (u0 ** 3 + 3 * u0 ** 2 + 6 * u0 + 6)
    return partial + tail + 0.5 * _jm_term(a)


@dataclass
class SpendingSequence:
    """Lazy evaluator for gamma_t, kept as one read-only table of its values.

    ``kind`` is one of power / log / jm / kernel / explicit; greedy is the
    explicit sequence (1, 0, 0, ...).  gamma_t = 0 for t <= 0.  Two sequences
    are equal when their parameters are, whatever either has evaluated.
    """

    kind: str
    q: float | None = None
    h: int | None = None
    values: tuple[float, ...] | None = None
    norm: float | None = None
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def window(self) -> int | None:
        """The t beyond which gamma_t = 0 (kernel: h, explicit: its length); None if infinite."""
        if self.kind == "kernel":
            return self.h
        return len(self.values) if self.kind == "explicit" else None

    def _raw(self, t: int) -> float:
        if self.kind == "kernel":
            return 1.0 / self.h if t <= self.h else 0.0
        if self.kind == "explicit":
            return self.values[t - 1] if t <= len(self.values) else 0.0
        raise ValueError(f"unknown spending sequence kind {self.kind!r}")

    def gamma(self, t: int) -> float:
        """gamma_t, with gamma_t = 0 for t <= 0."""
        return self.table(t).item(t) if t > 0 else 0.0

    def table(self, n: int) -> np.ndarray:
        """Read-only gamma_k at index k, for 0 <= k <= n at least.  Regrown to
        twice n in a new array that evaluates only the new indices, so a table
        read earlier stays a correct prefix."""
        if self._table is None or len(self._table) <= n:
            old = np.zeros(1) if self._table is None else self._table
            ts = range(len(old), 2 * n + 1)
            if self.kind in ("power", "log", "jm"):
                # term(t) / norm per value, the division as one numpy pass: the same bits
                if self.kind == "power":
                    terms = map(math.pow, map(float, ts), repeat(-self.q))
                elif self.kind == "log":
                    terms = map(_log_family_term, map(float, ts), repeat(self.q))
                else:
                    terms = map(_jm_term, map(float, ts))
                new = np.fromiter(terms, float, len(ts)) / self.norm
            else:
                new = np.fromiter(map(self._raw, ts), float, len(ts))
            self._table = np.concatenate((old, new))
            self._table.flags.writeable = False
        return self._table


def make_power_law(q: float) -> SpendingSequence:
    """gamma_t proportional to t^-q, q > 1, normalized to total mass 1."""
    if not 1 < q < math.inf:  # NaN fails too
        raise ValueError("power-law spending requires a finite q > 1 (the series diverges "
                         "for q <= 1)")
    return SpendingSequence(kind="power", q=q, norm=_power_norm(float(q)))


def make_log_family(q: float) -> SpendingSequence:
    """gamma_t proportional to 1 / ((t+1) log^q(t+1)), q > 1."""
    if not 1 < q < math.inf:  # NaN fails too
        raise ValueError("log-family spending requires a finite q > 1")
    return SpendingSequence(kind="log", q=q, norm=_log_norm(float(q)))


def make_jm_family() -> SpendingSequence:
    """gamma_t proportional to log(t+1) / ((t+1) exp(sqrt(log(t+1))))."""
    return SpendingSequence(kind="jm", norm=_jm_norm())


def make_kernel(h: int) -> SpendingSequence:
    """Rectangular kernel: gamma_t = 1/h for 1 <= t <= h, else 0; a whole
    float such as 10.0 reads as its integer."""
    whole = isinstance(h, numbers.Integral) or (isinstance(h, float) and h.is_integer())
    if isinstance(h, bool) or not whole:
        raise ValueError(f"kernel bandwidth must be an integer, got {h!r}")
    if h < 1:
        raise ValueError("kernel bandwidth must be >= 1")
    return SpendingSequence(kind="kernel", h=int(h))


def make_greedy() -> SpendingSequence:
    """The greedy reward schedule (1, 0, 0, ...)."""
    return SpendingSequence(kind="explicit", values=(1.0,))


def make_explicit(values) -> SpendingSequence:
    """Explicit finite sequence of total mass <= 1; gamma_t = 0 beyond the given values."""
    vals = tuple(float(v) for v in values)
    if not all(0.0 <= v < math.inf for v in vals):
        raise ValueError("spending values must be finite and nonnegative")
    if sum(vals) > 1.0 + SUM_SLACK:
        raise ValueError(f"spending values must sum to at most 1, got {sum(vals)!r}")
    return SpendingSequence(kind="explicit", values=vals)


# the keys of each family's spec besides "family"
SPEC_KEYS = {"power": ("q",), "log": ("q",), "jm": (), "kernel": ("h",), "greedy": (),
             "explicit": ("values",)}


def parse_sequence_spec(spec: dict) -> SpendingSequence:
    """Build a sequence from its config-file form, such as {"family": "power", "q": 1.6}.

    A spec has exactly its family's keys (SPEC_KEYS); q is a number and values
    a list of numbers, neither a string nor a bool.
    """
    args = dict.fromkeys(k for keys in SPEC_KEYS.values() for k in keys)
    family = check_keys(spec, "a spending spec", ("family",), args)["family"]
    if not isinstance(family, str) or family not in SPEC_KEYS:
        raise ValueError(f"unknown spending family {family!r}")
    check_keys(spec, f"a {family} spending spec", ("family", *SPEC_KEYS[family]))
    if family in ("power", "log"):
        q = json_float(spec["q"], "q")
        return make_power_law(q) if family == "power" else make_log_family(q)
    if family == "jm":
        return make_jm_family()
    if family == "kernel":
        return make_kernel(spec["h"])
    if family == "greedy":
        return make_greedy()
    values = spec["values"]
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"values must be a list of numbers, got {values!r}")
    return make_explicit([json_float(v, f"values[{i}]") for i, v in enumerate(values)])


def check_keys(obj, what: str, required=(), optional=()) -> dict:
    """``obj`` if it is a JSON object with every key of ``required`` and no key
    besides those and ``optional``; ``what`` names the object in the error."""
    takes = (*required, *optional)
    if not isinstance(obj, dict):
        problem = f"must be an object, got {obj!r}"
    elif unknown := set(obj) - set(takes):
        problem = f"unknown key(s) {', '.join(sorted(map(str, unknown)))}"
    elif missing := [key for key in required if key not in obj]:
        problem = f"missing key(s) {', '.join(missing)}"
    else:
        return obj
    raise ValueError(f"{problem}; {what} takes {', '.join(takes)}")


def json_number(x, what: str):
    """``x`` if it is a JSON number: float() would also read a string or a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return x


def json_float(x, what: str) -> float:
    """``float(x)`` of a JSON number; an integer past the largest float names
    ``what`` instead of ending in float()'s OverflowError."""
    if not isinstance(json_number(x, what), float) and abs(x) > sys.float_info.max:
        raise ValueError(f"{what} must be at most {sys.float_info.max:g} in magnitude")
    return float(x)
