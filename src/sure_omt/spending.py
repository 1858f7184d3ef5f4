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
from dataclasses import dataclass, field

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
    """Lazy evaluator for gamma_t with memoized values and prefix sums.

    ``kind`` is one of power / log / jm / kernel / explicit; greedy is the
    explicit sequence (1, 0, 0, ...).  gamma_t = 0 for t <= 0.  Two sequences
    are equal when their parameters are, whatever either has evaluated.
    """

    kind: str
    q: float | None = None
    h: int | None = None
    values: tuple[float, ...] | None = None
    norm: float | None = None
    _memo: list[float] = field(default_factory=lambda: [0.0], repr=False, compare=False)
    _prefix: list[float] = field(default_factory=lambda: [0.0], repr=False, compare=False)
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def window(self) -> int | None:
        """The t beyond which gamma_t = 0 (kernel: h, explicit: its length); None if infinite."""
        if self.kind == "kernel":
            return self.h
        return len(self.values) if self.kind == "explicit" else None

    def _raw(self, t: int) -> float:
        if self.kind == "power":
            return t ** (-self.q) / self.norm
        if self.kind == "log":
            return _log_family_term(float(t), self.q) / self.norm
        if self.kind == "jm":
            return _jm_term(float(t)) / self.norm
        if self.kind == "kernel":
            return 1.0 / self.h if t <= self.h else 0.0
        if self.kind == "explicit":
            return self.values[t - 1] if t <= len(self.values) else 0.0
        raise ValueError(f"unknown spending sequence kind {self.kind!r}")

    def _extend(self, t: int) -> None:
        while len(self._memo) <= t:
            g = self._raw(len(self._memo))
            self._memo.append(g)
            self._prefix.append(self._prefix[-1] + g)

    def gamma(self, t: int) -> float:
        """gamma_t, with gamma_t = 0 for t <= 0."""
        if t <= 0:
            return 0.0
        self._extend(t)
        return self._memo[t]

    def table(self, n: int) -> np.ndarray:
        """Read-only gamma_k at index k, for 0 <= k <= n at least.  Kept and regrown
        to twice n in a new array, so a table read earlier stays a correct prefix."""
        if self._table is None or len(self._table) <= n:
            self._extend(2 * n)
            self._table = np.array(self._memo[:2 * n + 1])
            self._table.flags.writeable = False
        return self._table

    def prefix(self, t: int) -> float:
        """sum_{s<=t} gamma_s."""
        if t <= 0:
            return 0.0
        self._extend(t)
        return self._prefix[t]

    def tail_bound(self, t: int) -> float:
        """Upper bound on sum_{s>t} gamma_s, analytic where available."""
        if self.window is not None:  # the remaining values themselves
            return math.fsum(self.gamma(s) for s in range(t + 1, self.window + 1))
        a = float(t + 1)
        if self.kind == "power":
            raw = a ** (1 - self.q) / (self.q - 1) + a ** -self.q
        elif self.kind == "log":
            raw = math.log(a + 1.0) ** (1 - self.q) / (self.q - 1) + _log_family_term(a, self.q)
        elif self.kind == "jm":
            u0 = math.sqrt(math.log(a + 1.0))
            raw = 2.0 * math.exp(-u0) * (u0 ** 3 + 3 * u0 ** 2 + 6 * u0 + 6) + _jm_term(a)
        else:
            raise ValueError(self.kind)
        return raw / self.norm


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


@dataclass(frozen=True)
class SequenceValidation:
    ok: bool
    total_at_horizon: float
    tail_bound: float
    horizon: int
    message: str = ""


def validate_sequence(seq: SpendingSequence, horizon: int = 10_000) -> SequenceValidation:
    """Check nonnegativity and total mass <= 1 (prefix at horizon + analytic tail)."""
    for t in range(1, horizon + 1):
        if seq.gamma(t) < 0:
            return SequenceValidation(False, seq.prefix(horizon), 0.0, horizon,
                                      f"negative value at t={t}")
    total = seq.prefix(horizon)
    tail = seq.tail_bound(horizon)
    # the analytic tail bound overshoots the true tail by about half the
    # first omitted term; use the sharper midpoint estimate for the check
    est = tail
    if seq.window is None:
        est = tail - 0.5 * seq.gamma(horizon + 1)
    ok = total + est <= 1.0 + SUM_SLACK
    msg = "" if ok else f"prefix sum {total} + tail {tail} exceeds 1"
    return SequenceValidation(ok, total, tail, horizon, msg)


# the keys of each family's spec besides "family"
SPEC_KEYS = {"power": ("q",), "log": ("q",), "jm": (), "kernel": ("h",), "greedy": (),
             "explicit": ("values",)}


def parse_sequence_spec(spec: dict) -> SpendingSequence:
    """Build a sequence from its config-file form.

    Grammar: {"family": "power", "q": 1.6} | {"family": "log", "q": q}
           | {"family": "jm"} | {"family": "kernel", "h": 100}
           | {"family": "greedy"} | {"family": "explicit", "values": [...]}
    A spec has exactly its family's keys; q is a number and values a list of
    numbers, neither a string nor a bool.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a spending spec must be an object, got {spec!r}")
    family = spec.get("family")
    if not isinstance(family, str) or family not in SPEC_KEYS:
        raise ValueError(f"unknown spending family {family!r}")
    keys = {"family", *SPEC_KEYS[family]}
    if set(spec) != keys:
        raise ValueError(f"a {family} spending spec takes exactly the keys "
                         f"{', '.join(sorted(keys))}, got {', '.join(map(str, spec))}")
    if family == "power":
        return make_power_law(float(_spec_number(spec["q"], "power spending q")))
    if family == "log":
        return make_log_family(float(_spec_number(spec["q"], "log spending q")))
    if family == "jm":
        return make_jm_family()
    if family == "kernel":
        return make_kernel(spec["h"])
    if family == "greedy":
        return make_greedy()
    values = spec["values"]
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"explicit spending values must be a list of numbers, got {values!r}")
    return make_explicit([_spec_number(v, "each explicit spending value") for v in values])


def _spec_number(x, what: str):
    """``x`` if it is a number: float() would also read a string or a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return x
