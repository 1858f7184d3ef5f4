"""Online procedure state machines.

Four base rules (online Bonferroni, its adaptive variant, alpha-investing
LORD, adaptive LORD) and their rewarded counterparts, which add back the
unspent fraction of past critical values through a reward spending
sequence.  The step API is emit_alpha() -> observe(p, bound): the critical
value for time T is fixed before the p-value at T is seen.

Two base formulas serve the four rules: online Bonferroni and LORD are the
adaptive rules with lambda = 0, whose re-indexation clocks are plain time.
A procedure keeps four history lists (eligibility flags, alphas, reject
flags, spent levels); without a reward, the alphas are the base values.  The
spent level, which the budget audits read, is F_t(alpha_t) for a rewarded rule
(its reward is alpha_t - F_t(alpha_t)) and alpha_t for a base rule, whose
``spent`` is its ``alphas`` list itself.

LORD/ALORD pay gamma at one re-indexation clock per past rejection, and a
rewarded rule pays gamma'_{T-t} rho_t for every past reward.  The scalar
machine keeps each such sum in one object that records its own events
(``add(start, weight)``, ``read(clock)``).  ``_ClockSums`` (gamma, and gamma'
with no window) adds each event's row to the sums of the clocks ahead, which
it buffers and rebuilds from its events, twice as long, when a read runs past
them; ``_WindowSums`` (kernel, explicit) sums the window left to right.

``run_batch`` runs every procedure of a simulator batch over K streams in
lockstep, as numpy arrays; ``OnlineProcedure`` stays the streaming API and its
reference.  The procedures that step through time share one loop over time:
each step is one numpy operation per quantity over a block of P procedures x
K streams, so the working set is about P times one procedure's K x m arrays;
the caller bounds it through K (``simulate`` passes a chunk of trials at a
time).  Every column keeps the scalar machine's order of every
floating-point operation, so its alphas and reject flags are the scalar ones
bit for bit: every sum gets its terms in event order from 0.0, as in
``_ClockSums``.  A rejection adds its term to a running row of base sums, and
a step's collected rewards, times gamma', to the reward parts kept for the
steps ahead in a time-major array.  Both engines read gamma tables and reward
windows from the spending sequence (``table(n)``, ``window``), record the
spent levels, and share one array budget audit.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from .core import Decision, IDENTITY_BOUND, StepCdf
from .spending import SpendingSequence

# builds a named tuple from its fields without the generated __new__'s
# argument handling: the caller passes every field, in order
_new_tuple = tuple.__new__


class Rule(NamedTuple):
    """What a public procedure name means: a base rule, rewarded or capped."""

    base: str               # ob | aob | lord | alord
    rewarded: bool = False
    capped: bool = False    # level capped at lambda (SAFFRON-style)

    @property
    def investing(self) -> bool:
        """Alpha-investing rules need w0 and control mFDR; the others control FWER."""
        return self.base in ("lord", "alord")

    @property
    def adaptive(self) -> bool:
        """Adaptive rules skip the steps with p below lambda; the others run at lambda = 0."""
        return self.base in ("aob", "alord")

    def lam(self, config: ProcedureConfig) -> float:
        """The lambda the rule runs with: the config's for the adaptive bases, else 0."""
        return config.lam if self.adaptive else 0.0


RULES = {
    "ob": Rule("ob"), "rho-ob": Rule("ob", rewarded=True),
    "aob": Rule("aob"), "rho-aob": Rule("aob", rewarded=True),
    "lord": Rule("lord"), "rho-lord": Rule("lord", rewarded=True),
    "alord": Rule("alord"), "rho-alord": Rule("alord", rewarded=True),
    "saffron-capped": Rule("alord", capped=True),
}


def parse_name(name: str) -> Rule:
    """The rule a public procedure name stands for."""
    try:
        return RULES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown procedure {name!r}") from None


def _checked_rule(name: str, config: ProcedureConfig) -> Rule:
    """The rule of ``name``, once ``config`` has what the rule needs."""
    rule = parse_name(name)
    if rule.investing and config.w0 is None:
        raise ValueError(f"{name} requires an initial wealth w0")
    if rule.rewarded and config.gamma_prime is None:
        raise ValueError("rewarded procedures require gamma_prime")
    return rule


@dataclass
class ProcedureConfig:
    """Parameters shared by all procedures; w0 applies to investing rules only."""

    alpha: float
    gamma: SpendingSequence
    lam: float = 0.0
    w0: float | None = None
    gamma_prime: SpendingSequence | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lambda must lie in [0, 1)")
        if self.w0 is not None and not 0.0 < self.w0 < self.alpha:
            raise ValueError("w0 must lie in (0, alpha)")


class _ClockSums:
    """For each clock c ahead, the sum of w * g_{c - s} over the events (s, w)
    so far, added in event order from 0.0: an event adds its g row times w to
    the sum of every later clock, as one numpy add.

    The sums of the clocks ahead are buffered, at least 1024 and then twice as
    many as before.  Read past the buffer, they are rebuilt for the clocks
    ahead from the recorded events, one add per event in the same order, so
    every sum keeps its bits and T clocks rebuild O(log T) times.  A row of
    weight 1.0 is added as it is: multiplying it by 1.0 is exact.
    """

    def __init__(self, g: SpendingSequence):
        self._g = g
        self._starts, self._weights = array("q"), array("d")
        self._lo = 1             # _sums[c - _lo] is the sum at clock c
        self._sums = np.zeros(0)
        self._tab = np.zeros(0)  # g_0 .. g_n at least, for the buffered clocks

    def add(self, start: int, weight: float) -> None:
        """An event at clock ``start``, not below the last clock read: the
        clocks above it read g_1, g_2, ... times ``weight`` more."""
        self._starts.append(start)
        self._weights.append(weight)
        k = start + 1 - self._lo
        row = self._tab[1:len(self._sums) - k + 1]
        self._sums[k:] += row if weight == 1.0 else row * weight

    def read(self, c: int) -> float:
        """The sum at clock c, not below the last clock read."""
        if c - self._lo >= len(self._sums):
            self._rebuild(c)
        return self._sums.item(c - self._lo)

    def _rebuild(self, c: int) -> None:
        n = max(1024, 2 * len(self._sums))
        self._tab = tab = self._g.table(c + n)
        self._lo, self._sums = c, np.zeros(n)
        for start, weight in zip(self._starts, self._weights):
            row = tab[c - start:c - start + n]
            self._sums += row if weight == 1.0 else row * weight


class _WindowSums:
    """The sum at clock c of w * g_{c - s} over the events (s, w) in g's window,
    c - window <= s, added left to right from 0.0 (a kernel's weights after the
    sum, as a division by h): builtin sum() is compensated from Python 3.12."""

    def __init__(self, g: SpendingSequence):
        self._window, self._h = g.window, g.h
        self._kernel = g.kind == "kernel"
        self._table = None if self._kernel else g.table(self._window)
        self._starts: deque[int] = deque()
        self._weights: deque[float] = deque()

    def add(self, start: int, weight: float) -> None:
        self._starts.append(start)
        self._weights.append(weight)

    def read(self, c: int) -> float:
        starts, weights = self._starts, self._weights
        cutoff = c - self._window
        while starts and starts[0] < cutoff:
            starts.popleft()
            weights.popleft()
        s = 0.0
        if self._kernel:
            for w in weights:
                s += w
            return s / self._h
        table = self._table
        for start, w in zip(starts, weights):
            s += table.item(c - start) * w
        return s


class OnlineProcedure:
    """One single-stream online testing state machine for a public procedure name.

    The name's base rule sets the base critical values; a rewarded name adds
    the reward convolution and (for adaptive bases) the carry term for
    sub-lambda p-values.
    """

    def __init__(self, name: str, config: ProcedureConfig):
        rule = _checked_rule(name, config)
        self.config = config
        self.rewarded = rule.rewarded
        self._investing = rule.investing
        self._lam = rule.lam(config)
        self._alpha = config.alpha
        self._w0 = config.w0
        self._g = config.gamma
        self._capped = rule.capped
        # history, appended once per step
        self.lam_flags: list[bool] = []       # p_t >= lambda
        self.alphas: list[float] = []
        self.rejects: list[bool] = []
        self.spent: list[float] = [] if self.rewarded else self.alphas  # F_t(alpha_t) if rewarded
        self.r_count = 0
        # re-indexation clocks: clock j reads 1 + E - s_j, where E counts the
        # eligible steps so far and s_j is E at the j-th rejection (s_0 = 0)
        self._n_eligible = 0
        self._first = 0  # s_1
        # the sum at clock c of gamma at c - s_j over the rejections j >= 2 (investing rules)
        self._later = _ClockSums(self._g)
        self._gtab = np.zeros(0)
        # the sum at step T of gamma'_{T - t} rho_t over the eligible positive rewards
        gp = config.gamma_prime
        self._reward_sums = None
        if self.rewarded:
            self._reward_sums = (_ClockSums if gp.window is None else _WindowSums)(gp)
        self._t_next = 1
        self._eps = 0.0                       # carry: alpha - base after p < lambda
        self._pending: tuple[float, float, float, float] | None = None

    # -- step API ------------------------------------------------------------

    def emit_alpha(self) -> float:
        """Critical value for the next time index; must precede observe()."""
        if self._pending is not None:
            raise RuntimeError("observe() must be called before the next emit_alpha()")
        # OB and LORD are AOB and ALORD with lambda = 0: every step is eligible,
        # so clock 0 is T and clock j is T minus the j-th rejection time
        c0 = 1 + self._n_eligible
        if c0 >= len(self._gtab):
            self._gtab = self._g.table(c0)
        gtab = self._gtab
        if not self._investing:
            base = self._alpha * (1.0 - self._lam) * gtab.item(c0)
        else:
            alpha, w0 = self._alpha, self._w0
            b1 = gtab.item(c0 - self._first) if self.r_count else 0.0
            s = self._later.read(c0)
            base = (1.0 - self._lam) * (w0 * gtab.item(c0) + (alpha - w0) * b1 + alpha * s)
            if self._capped:
                base = min(self._lam, base)
        if self.rewarded:
            sure = self._reward_sums.read(self._t_next)
            eps = self._eps
            alpha = base + sure + eps
        else:
            sure = eps = 0.0
            alpha = base
        self._pending = (alpha, base, sure, eps)
        return alpha

    def observe(self, p: float, bound: StepCdf | None = None) -> Decision:
        """Consume the p-value (and its null bound) for the emitted time index."""
        if self._pending is None:
            raise RuntimeError("emit_alpha() must be called before observe()")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        alpha, base, sure, eps = self._pending
        self._pending = None
        bound = IDENTITY_BOUND if bound is None else bound
        t = self._t_next
        reject = p <= alpha
        f = bound(alpha)
        rho = alpha - f
        eligible = p >= self._lam
        self.lam_flags.append(eligible)
        self.alphas.append(alpha)
        self.rejects.append(reject)
        if self.rewarded:
            self.spent.append(f)
            if eligible and rho > 0.0:
                self._reward_sums.add(t, rho)
        if eligible:
            self._n_eligible += 1
        self._eps = 0.0 if eligible else alpha - base
        if reject:
            self.r_count += 1
            if self.r_count == 1:
                self._first = self._n_eligible
            elif self._investing:
                self._later.add(self._n_eligible, 1.0)
        self._t_next = t + 1
        return _new_tuple(Decision, (t, p, alpha, reject, rho, base, sure, eps, self.r_count))

    def step(self, p: float, bound: StepCdf | None = None) -> Decision:
        self.emit_alpha()
        return self.observe(p, bound)

    def run(self, stream) -> list[Decision]:
        """Run over (p, bound) pairs, in order."""
        return [self.step(p, bound) for p, bound in stream]

    @property
    def t(self) -> int:
        """Number of completed steps."""
        return self._t_next - 1


def make_procedure(name: str, config: ProcedureConfig) -> OnlineProcedure:
    """Build a procedure by its public name."""
    return OnlineProcedure(name, config)


# -- lockstep batch: K streams of every procedure at once ----------------------

class NullBounds:
    """The null bounds of K streams of m steps, evaluated as arrays.

    Step (k, i) has the bound ``table[ids[k, i]]``; only ``ids`` (K x m) and
    the arrays ``cdf`` reads are kept.  F is looked up through the sorted
    support points of all bounds: each support point of bound b gets the key
    b * width + its rank, and each bound a key b * width that reads F = 0.
    The last key <= b * width plus the number of points <= u is then the
    largest support point of b that is <= u, as ``StepCdf.__call__`` finds it.
    """

    def __init__(self, table: Sequence[StepCdf], ids):
        self.ids = np.asarray(ids, dtype=np.intp)
        n = len(table)
        lens = np.fromiter((len(b.support) for b in table), np.intp, n)
        flat = np.concatenate([b.support for b in table])
        points = np.sort(flat)  # np.unique would import numpy.ma
        self._points = points[np.concatenate(([True], points[1:] != points[:-1]))]
        width = len(self._points) + 1
        # each bound's key, then its points' keys, ascending: in order already
        keys = np.repeat(np.arange(n) * width, lens) + np.searchsorted(self._points, flat) + 1
        firsts = np.cumsum(lens) - lens
        self._keys = np.insert(keys, firsts, np.arange(n) * width)
        # F at the last key <= q, which is at searchsorted(keys, q, "right") - 1
        self._vals_before = np.concatenate(([0.0], np.insert(flat, firsts, 0.0)))
        self._start = self.ids * width
        identity = np.fromiter((b.exact_identity for b in table), bool, n)
        self._identity = identity[self.ids] if identity.any() else None

    def cdf(self, u, i: int) -> np.ndarray:
        """F(u) at step i (0-based) of every stream, for u >= 0; u > 1 reads as 1.
        ``u`` may have leading axes, which broadcast over the streams."""
        q = self._start[:, i] + self._points.searchsorted(u, "right")
        out = self._vals_before[self._keys.searchsorted(q, "right")]
        if self._identity is not None:
            out = np.where(self._identity[:, i], np.minimum(u, 1.0), out)
        return out


def _clock0_part(rule: Rule, config: ProcedureConfig, clock0: np.ndarray,
                 out: np.ndarray | None = None):
    """The base part read at clock 0 (K x m): the whole base of OB/AOB, alpha
    times 1 - lambda times gamma, and w0 times gamma for LORD/ALORD."""
    coef = config.w0 if rule.investing else config.alpha * (1.0 - rule.lam(config))
    return np.multiply(coef, config.gamma.table(clock0.shape[-1])[clock0], out=out)


class _BlockBases:
    """Base values of a block of P procedures x K streams at every step,
    rebuilt after each rejection of an investing procedure.

    Row j reads ``(1 - lambda_j) * (head + alpha_j * s)``, capped at lambda_j for
    the capped rule.  An OB/AOB row's head holds its base values (alpha times
    1 - lambda times gamma at clock 0), and the row reads them unchanged, with
    alpha_j = lambda_j = 0.  A LORD/ALORD row's head holds w0 times gamma at
    clock 0, plus alpha - w0 times gamma at clock 1 from the first rejection
    on, and ``s`` the per-step sums of gamma at the later clocks.  So the
    values of a step, read once the rejections before it are in, are bit for
    bit the base of ``OnlineProcedure.emit_alpha``.  The investing rows come first, and
    only they keep ``s`` and ``alpha_j``.
    """

    def __init__(self, rows: Sequence[tuple[Rule, ProcedureConfig]], lam_index: np.ndarray,
                 clock0: np.ndarray):
        _, K, m = clock0.shape
        self._head = np.empty((len(rows), K, m))
        for j, (rule, c) in enumerate(rows):
            _clock0_part(rule, c, clock0[lam_index[j]], out=self._head[j])
        investing = [c for rule, c in rows if rule.investing]
        n = len(investing)
        self._s = np.zeros((n, K, m))
        self._alpha = np.array([c.alpha for c in investing]).reshape(n, 1)
        self._keep = np.array([[1.0 - rule.lam(c) if rule.investing else 1.0]
                               for rule, c in rows])
        capped = [[rule.lam(c) if rule.capped else np.inf] for rule, c in rows]
        self._cap = np.array(capped) if any(rule.capped for rule, _ in rows) else None
        # investing row r = j * K + k of head and s: procedure j on stream k
        # row counts given, not -1: a reshape of no elements cannot infer them
        self._head_rows = self._head.reshape(len(rows) * K, m)
        self._s_rows = self._s.reshape(n * K, m)
        self._clock0 = clock0.reshape(len(clock0) * K, m)
        self._clock_of = (lam_index[:n, None] * K + np.arange(K)).reshape(-1)
        # gamma_1 .. gamma_m of each distinct gamma, one after the other, and
        # the offset of each row's
        gammas = []
        for c in investing:
            if c.gamma not in gammas:
                gammas.append(c.gamma)
        self._gamma = np.concatenate([g.table(m)[1:m + 1] for g in gammas] or [[]])
        offsets = [m * gammas.index(c.gamma) for c in investing]
        self._gamma_at = np.repeat(offsets, K) if len(gammas) > 1 else None
        self._alpha_w0 = np.repeat([c.alpha - c.w0 for c in investing], K)
        self._first = np.ones(n * K, dtype=bool)

    def values(self, i: int) -> np.ndarray:
        """The base values of step i (0-based), P x K."""
        val = self._head[:, :, i].copy()
        val[:len(self._s)] += self._alpha * self._s[:, :, i]
        val *= self._keep
        return val if self._cap is None else np.minimum(self._cap, val, out=val)

    def reject(self, rejects: np.ndarray, i: int) -> None:
        """The investing rows' reject flags (n x K) of step i (0-based): rebuild
        the values after it of the streams that reject."""
        rows = rejects.reshape(-1).nonzero()[0]
        cols = slice(i + 1, None)  # empty at the last step: every update below is a no-op
        if not len(rows):
            return
        clock0 = self._clock0[self._clock_of[rows], cols]
        # the new clock reads 1 at step i + 1, then 1 + clock 0 - clock 0 there
        first_clock = clock0[:, :1]
        if self._gamma_at is not None:
            first_clock = first_clock - self._gamma_at[rows, None]
        term = self._gamma[clock0 - first_clock]
        first = self._first[rows]
        if np.count_nonzero(first):
            head_rows = rows[first]
            self._head_rows[head_rows, cols] += self._alpha_w0[head_rows, None] * term[first]
            self._first[head_rows] = False
            rows, term = rows[~first], term[~first]
        self._s_rows[rows, cols] += term


@dataclass
class BatchRun:
    """One procedure run over K streams in lockstep.

    Row k of ``alphas``, ``rejects``, ``lam_flags`` and ``spent`` equals the
    history ``OnlineProcedure`` records on stream k, bit for bit.
    """

    config: ProcedureConfig
    rule: Rule
    alphas: np.ndarray
    rejects: np.ndarray
    lam_flags: np.ndarray
    spent: np.ndarray  # ``alphas`` itself for a base rule

    def audit(self) -> list[AuditReport]:
        """The budget audit of every stream for the error rate the rule controls:
        mFDR for the investing rules, FWER for the others."""
        budget = (1.0 - self.rule.lam(self.config)) * self.config.alpha
        return _budget_audit(self.alphas, self.spent, self.lam_flags, self.rejects, budget,
                             self.rule.investing)


def run_batch(configs: dict[str, ProcedureConfig], pvals,
              bounds: NullBounds) -> dict[str, BatchRun]:
    """Run every procedure of ``configs``, keyed by name, over K streams:
    ``pvals`` is K x m, and ``NullBounds(table, ids)`` gives step (k, t) its null
    bound ``table[ids[k, t]]``.

    OB/AOB have no step loop: they read gamma at clock 0.  The other rules
    step through time in one loop, as one block of (procedures x streams)
    columns; LORD/ALORD rebuild a stream's base values after each of its
    rejections.  The procedures with one lambda share their eligibility flags.
    Every array, the outputs included, is K x m per procedure, so a caller
    with many streams passes them a chunk at a time.
    """
    rules = {name: _checked_rule(name, config) for name, config in configs.items()}
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 2 or bounds.ids.shape != p.shape:
        raise ValueError("pvals and bounds.ids must both be K x m")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    K, m = p.shape
    lams = sorted({rule.lam(configs[name]) for name, rule in rules.items()})
    lam_of = {name: lams.index(rule.lam(configs[name])) for name, rule in rules.items()}
    flags = np.greater_equal(p, np.array(lams)[:, None, None])  # by distinct lambda
    clock0 = np.ones(flags.shape, dtype=np.intp)  # 1 + E before each step
    np.cumsum(flags[:, :, :-1], axis=2, out=clock0[:, :, 1:])
    clock0[:, :, 1:] += 1
    # the block: investing rows first, rewarded rows last, equal gamma' adjacent
    gammas = [c.gamma_prime for c in configs.values()]
    block = sorted((name for name, rule in rules.items() if rule.investing or rule.rewarded),
                   key=lambda name: (not rules[name].investing, rules[name].rewarded,
                                     gammas.index(configs[name].gamma_prime)))
    r0 = sum(not rules[name].rewarded for name in block)
    alphas = np.empty((len(block), K, m))
    rejects = np.empty(alphas.shape, dtype=bool)
    spent = np.empty((len(block) - r0, K, m))
    runs = {}
    for name in rules:
        if name not in block:
            a = _clock0_part(rules[name], configs[name], clock0[lam_of[name]])
            runs[name] = BatchRun(configs[name], rules[name], a, p <= a, flags[lam_of[name]], a)
    if block:
        _step_block([(rules[name], configs[name]) for name in block],
                    np.array([lam_of[name] for name in block]), p, flags, clock0, bounds,
                    alphas, rejects, spent)
    for j, (name, a) in enumerate(zip(block, alphas)):
        runs[name] = BatchRun(configs[name], rules[name], a, rejects[j], flags[lam_of[name]],
                              spent[j - r0] if j >= r0 else a)
    return {name: runs[name] for name in configs}


def _step_block(rows: Sequence[tuple[Rule, ProcedureConfig]], lam_index: np.ndarray,
                p: np.ndarray, flags: np.ndarray, clock0: np.ndarray, bounds: NullBounds,
                alphas: np.ndarray, rejects: np.ndarray, spent: np.ndarray) -> None:
    """Step P procedures (``rows``, investing first and rewarded last) over the
    K x m ``p`` together, one step of all P x K columns at a time, into
    ``alphas``, ``rejects`` (P x K x m) and the rewarded rows' ``spent``.

    ``flags`` and ``clock0`` hold the eligibility flags and clock 0 for each
    distinct lambda, and ``lam_index`` each row's.  A rewarded row adds its
    reward part and carry to the base and spends F(alpha); the other rows add
    zeros.  Each run of rows with one gamma' keeps the reward parts of all
    steps in one time-major array, rows x K per step: the rewards collected
    at a step are added to the parts of the later steps in gamma'.window, each
    weighted by gamma'_{t' - t} (a kernel's part is divided by h when read).
    """
    P, K, m = alphas.shape
    r0 = P - len(spent)
    n_investing = sum(rule.investing for rule, _ in rows)
    bases = _BlockBases(rows, lam_index, clock0)
    runs = []  # (gamma', first row, end row, span, weights, reward parts ahead)
    for gp, run in groupby(range(r0, P), key=lambda j: rows[j][1].gamma_prime):
        a, *rest = run
        b = a + 1 + len(rest)
        span = m if gp.window is None else gp.window
        weights = None if gp.kind == "kernel" else gp.table(span)[1:span + 1, None, None]
        runs.append((gp, a, b, span, weights, np.zeros((m, b - a, K))))
    sure, eps = np.zeros((P, K)), np.zeros((P, K))  # reward part and carry
    eps_r = eps[r0:]
    flag_index = lam_index[r0:]
    for i in range(m):
        for gp, a, b, _, weights, ahead in runs:
            if weights is None:
                np.divide(ahead[i], gp.h, out=sure[a:b])
            else:
                sure[a:b] = ahead[i]
        base = bases.values(i)
        alpha = np.add(base, sure, out=alphas[:, :, i])
        alpha += eps
        reject = np.less_equal(p[:, i], alpha, out=rejects[:, :, i])
        if r0 < P:
            alpha_r = alpha[r0:]
            f = spent[:, :, i] = bounds.cdf(alpha_r, i)
            eligible = flags[flag_index, :, i]
            # rho >= 0, so rho times the eligibility flag is the collected reward
            collected = np.subtract(alpha_r, f)
            collected *= eligible
            for _, a, b, span, weights, ahead in runs:
                end = min(m, i + 1 + span)
                rho = collected[a - r0:b - r0]
                ahead[i + 1:end] += rho if weights is None else weights[:end - i - 1] * rho
            np.subtract(alpha_r, base[r0:], out=eps_r)
            eps_r[eligible] = 0.0
        if n_investing:
            bases.reject(reject[:n_investing], i)


# -- budget audits ---------------------------------------------------------------

AUDIT_TOL = 1e-9  # the excess over the budget an audit forgives (float rounding)

@dataclass(frozen=True)
class AuditReport:
    ok: bool
    worst_excess: float
    worst_t: int | None
    n_checked: int


def _budget_audit(vals, spent, flags, rejects, budget: float, mfdr: bool) -> list[AuditReport]:
    """Budget audit of K realized histories (K x n arrays), one per row.

    At step t the level plus the spent levels of the eligible steps before t
    must stay within the budget (times the rejections so far, for mFDR);
    the spent levels are summed left to right with ``cumsum``.  A row with a
    non-finite excess fails at its first such step, with excess inf.
    """
    vals = np.asarray(vals, dtype=float)
    K, n = vals.shape
    if n == 0:
        return [AuditReport(True, 0.0, None, 0)] * K
    cum = np.zeros((K, n))
    cum[:, 1:] = np.cumsum(np.where(flags, spent, 0.0), axis=1)[:, :-1]
    rhs = budget * np.maximum(1, np.cumsum(rejects, axis=1)) if mfdr else budget
    excess = (vals + cum) - rhs
    # NaN would hide from argmax's comparisons, so non-finite reads as inf
    excess[~np.isfinite(excess)] = np.inf
    worst_i = excess.argmax(axis=1)  # the first step of the largest excess
    reports = []
    for i, worst in zip(worst_i.tolist(), excess[np.arange(K), worst_i].tolist()):
        if not worst > 0.0:
            worst, i = 0.0, None
        reports.append(AuditReport(ok=worst <= AUDIT_TOL, worst_excess=worst,
                                   worst_t=None if i is None else i + 1, n_checked=n))
    return reports


def _audit(proc: OnlineProcedure, mfdr: bool) -> AuditReport:
    [report] = _budget_audit([proc.alphas], [proc.spent], [proc.lam_flags], [proc.rejects],
                             (1.0 - proc._lam) * proc.config.alpha, mfdr)
    return report


def audit_fwer_budget(proc: OnlineProcedure) -> AuditReport:
    """Check the family-wise error budget along the recorded history.

    For base procedures this is the condition on the base values; for
    rewarded procedures the realized critical values enter through their
    truly spent level F_t(alpha_t), recorded at each step.
    """
    return _audit(proc, mfdr=False)


def audit_mfdr_budget(proc: OnlineProcedure) -> AuditReport:
    """Same as the FWER audit but against the rejection-scaled budget."""
    return _audit(proc, mfdr=True)
