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
(its reward is alpha_t - F_t(alpha_t)) and alpha_t for a base rule.

LORD/ALORD pay gamma at one re-indexation clock per past rejection.  Both
engines keep, for each clock ahead, the sum of gamma over the rejections after
the first: a rejection adds its gamma row to every later clock's sum, in
rejection order, so a step reads its base from one entry.  The scalar machine
buffers the clocks ahead and rebuilds the buffer, twice as long, when the
clock runs past it.

``run_batch`` runs one procedure over K streams in lockstep, as numpy arrays,
for the simulator; ``OnlineProcedure`` stays the streaming API and its
reference.  The batch keeps the scalar machine's order of every floating-point
operation, so its alphas and reject flags are the scalar ones bit for bit: sums
run left to right (``cumsum``, and a running row to which each rejection adds
its term in rejection order).  Both read gamma tables and reward windows from
the spending sequence (``table(n)``, ``window``), compute the reward part of a
gamma' with no window with ``_reward_part`` over time-major rewards (the batch
every reward part), record the spent levels, and share one array budget audit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .core import Decision, IDENTITY_BOUND, StepCdf
from .spending import SpendingSequence


class Rule(NamedTuple):
    """What a public procedure name means: a base rule, rewarded or capped."""

    base: str               # ob | aob | lord | alord
    rewarded: bool = False
    capped: bool = False    # level capped at lambda (SAFFRON-style)

    @property
    def investing(self) -> bool:
        """Alpha-investing rules need w0 and control mFDR; the others control FWER."""
        return self.base in ("lord", "alord")

    def lam(self, config: ProcedureConfig) -> float:
        """The lambda the rule runs with: the config's for the adaptive bases, else 0."""
        return config.lam if self.base in ("aob", "alord") else 0.0


RULES = {
    "ob": Rule("ob"), "rho-ob": Rule("ob", rewarded=True),
    "aob": Rule("aob"), "rho-aob": Rule("aob", rewarded=True),
    "lord": Rule("lord"), "rho-lord": Rule("lord", rewarded=True),
    "alord": Rule("alord"), "rho-alord": Rule("alord", rewarded=True),
    "saffron-capped": Rule("alord", capped=True),
}
FWER_NAMES = tuple(name for name, rule in RULES.items() if not rule.investing)


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
        self._gp = config.gamma_prime
        self._capped = rule.capped
        # history, appended once per step
        self.lam_flags: list[bool] = []       # p_t >= lambda
        self.alphas: list[float] = []
        self.rejects: list[bool] = []
        self.spent: list[float] = []          # F_t(alpha_t) if rewarded, else alpha_t
        self.r_count = 0
        # re-indexation clocks: clock j reads 1 + E - starts[j], where E counts
        # the eligible steps so far and starts[j] is E at the j-th rejection
        self._n_eligible = 0
        self._starts: list[int] = [0]
        # _later[c - _lo] is the sum, in rejection order, of gamma at clock c
        # minus starts[j] over the rejections j >= 2, for buffered clocks c
        self._lo = 1
        self._later = np.zeros(0)
        self._gtab = np.zeros(0)
        # eligible positive rewards: the last gamma'.window steps if gamma' has a
        # window (kernel, explicit), else run_batch's time-major rewards (0.0 where
        # none was collected), grown by doubling; the sequence gives their weights
        self._window = None if self._gp is None else self._gp.window
        self._win_t: deque[int] = deque()
        self._win_rho: deque[float] = deque()
        self._rewards = np.zeros((0, 1))
        self._t_next = 1
        self._eps = 0.0                       # carry: alpha - base after p < lambda
        self._pending: tuple[float, float, float, float] | None = None

    # -- base rules ---------------------------------------------------------

    def _base_alpha(self) -> float:
        # OB and LORD are AOB and ALORD with lambda = 0: every step is eligible,
        # so clock 0 is T and clock j is T minus the j-th rejection time
        c0 = 1 + self._n_eligible
        g = self._g
        g._extend(c0)
        memo = g._memo
        if not self._investing:
            return self._alpha * (1.0 - self._lam) * memo[c0]
        alpha, w0 = self._alpha, self._w0
        starts = self._starts
        b1 = memo[c0 - starts[1]] if len(starts) > 1 else 0.0
        if c0 - self._lo >= len(self._later):
            self._refill(c0)
        s = self._later.item(c0 - self._lo)
        val = (1.0 - self._lam) * (w0 * memo[c0] + (alpha - w0) * b1 + alpha * s)
        if self._capped:
            val = min(self._lam, val)
        return val

    def _refill(self, c0: int) -> None:
        """Buffer clocks [c0, c0 + n), twice as many as before and at least
        1024: each past rejection j >= 2 adds its gamma row, in rejection order."""
        n = max(1024, 2 * len(self._later))
        self._gtab = gtab = self._g.table(c0 + n)
        self._lo, self._later = c0, np.zeros(n)
        for start in self._starts[2:]:
            self._later += gtab[c0 - start:c0 - start + n]

    def _clock(self, j: int) -> int:
        """Value of re-indexation clock j (0 <= j <= rejections) at the next step."""
        return 1 + self._n_eligible - self._starts[j]

    # -- reward convolution -------------------------------------------------

    def _sure_part(self, T: int) -> float:
        gp = self._gp
        if self._window is None:
            n = len(self._rewards)
            if n < T:
                # grow geometrically: one rebuild per doubling of T
                self._rewards = np.concatenate((self._rewards, np.zeros((2 * T - n, 1))))
            return float(_reward_part(gp, self._rewards, T - 1)[0])
        wt, wr = self._win_t, self._win_rho
        cutoff = T - self._window
        while wt and wt[0] < cutoff:
            wt.popleft()
            wr.popleft()
        if gp.kind == "kernel":
            # left to right: builtin sum() is compensated from Python 3.12
            s = 0.0
            for rho in wr:
                s += rho
            return s / gp.h
        s = 0.0
        for t, rho in zip(wt, wr):
            s += gp.gamma(T - t) * rho
        return s

    # -- step API ------------------------------------------------------------

    def emit_alpha(self) -> float:
        """Critical value for the next time index; must precede observe()."""
        if self._pending is not None:
            raise RuntimeError("observe() must be called before the next emit_alpha()")
        base = self._base_alpha()
        if self.rewarded:
            sure = self._sure_part(self._t_next)
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
        self.spent.append(f if self.rewarded else alpha)
        if self.rewarded and eligible and rho > 0.0:
            if self._window is not None:
                self._win_t.append(t)
                self._win_rho.append(rho)
            else:
                self._rewards[t - 1, 0] = rho
        if eligible:
            self._n_eligible += 1
        self._eps = 0.0 if eligible else alpha - base
        if reject:
            self._starts.append(self._n_eligible)
            self.r_count += 1
            if self._investing and self.r_count >= 2:
                # clocks above the new start read gamma_1, gamma_2, ... more
                k = self._n_eligible + 1 - self._lo
                self._later[k:] += self._gtab[1:len(self._later) - k + 1]
        self._t_next = t + 1
        return Decision(t=t, p=p, alpha=alpha, reject=reject, rho=rho,
                        base_part=base, sure_part=sure, eps_part=eps,
                        r_count=self.r_count)

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


def reindex_clock(lam_flags: Sequence[bool], taus: Sequence[int], j: int, T: int) -> int:
    """Clock value at time T: counts steps whose preceding p-value was eligible.

    Clock 0 starts at time 1; clock j >= 1 starts right after the j-th
    rejection and reads 0 up to it.
    """
    if j < 0 or T < 1:
        raise ValueError("need j >= 0 and T >= 1")
    if j == 0:
        start = 2
    else:
        if j > len(taus):
            return 0
        tau = taus[j - 1]
        if T <= tau:
            return 0
        start = tau + 2
    # lam_flags[t-1] holds the eligibility of p_t
    return 1 + sum(1 for t in range(start, T + 1) if lam_flags[t - 2])


def alpha_tilde_oracle(base_values: Sequence[float], p_values: Sequence[float],
                       cdfs: Sequence[StepCdf], gamma_prime: SpendingSequence,
                       lam: float, T: int) -> float:
    """Dual-form recursion for the rewarded critical value (test oracle).

    Computes the value at time T from full prefixes, independently of the
    incremental machinery.
    """
    tilde: list[float] = []
    for s in range(1, T + 1):
        v = base_values[s - 1]
        for t in range(1, s):
            if p_values[t - 1] >= lam:
                a = gamma_prime.prefix(s - t)
                v += base_values[t - 1]
                v -= (1.0 - a) * tilde[t - 1] + a * cdfs[t - 1](tilde[t - 1])
        tilde.append(v)
    return tilde[T - 1]


# -- lockstep batch: K streams of one procedure at once ------------------------

class NullBounds:
    """The null bounds of K streams of m steps, evaluated as arrays.

    ``table`` holds the distinct bounds and ``ids`` (K x m) each step's index
    into it.  F is looked up through the sorted support points of all bounds:
    each support point of bound b gets the key b * width + its rank, and each
    bound a key b * width that reads F = 0.  The last key <= b * width plus
    the number of points <= u is then the largest support point of b that is
    <= u, as ``StepCdf.__call__`` finds it.
    """

    def __init__(self, table: Sequence[StepCdf], ids):
        self.table = tuple(table)
        self.ids = np.asarray(ids, dtype=np.intp)
        n = len(self.table)
        lens = np.fromiter((len(b.support) for b in self.table), np.intp, n)
        flat = np.fromiter(chain.from_iterable(b.support for b in self.table), float,
                           int(lens.sum()))
        points = np.sort(flat)  # np.unique would import numpy.ma
        self._points = points[np.concatenate(([True], points[1:] != points[:-1]))]
        width = len(self._points) + 1
        owner = np.repeat(np.arange(n), lens)
        keys = np.concatenate((np.arange(n) * width,
                               owner * width + np.searchsorted(self._points, flat) + 1))
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        # F at the last key <= q, which is at searchsorted(keys, q, "right") - 1
        self._vals_before = np.concatenate(([0.0], np.concatenate((np.zeros(n), flat))[order]))
        self._start = self.ids * width
        identity = np.fromiter((b.exact_identity for b in self.table), bool, n)
        self._identity = identity[self.ids] if identity.any() else None

    def cdf(self, u, i: int) -> np.ndarray:
        """F(u) at step i (0-based) of every stream, for u >= 0; u > 1 reads as 1."""
        q = self._start[:, i] + self._points.searchsorted(u, "right")
        out = self._vals_before[self._keys.searchsorted(q, "right")]
        if self._identity is not None:
            out = np.where(self._identity[:, i], np.minimum(u, 1.0), out)
        return out


class _InvestingBase:
    """LORD/ALORD base values of K streams at every step, rebuilt after each
    rejection.

    ``_base_alpha`` adds w0 times gamma at clock 0 and alpha - w0 times gamma
    at clock 1 (set by the first rejection), then alpha times the sum of gamma
    at the later clocks.  Each row keeps the first two added (``_head``) and
    the per-step sums of the later clocks for all steps of the batch; so the
    values of a step, read once the rejections before it are in, are bit for
    bit the scalar ones.
    """

    def __init__(self, config: ProcedureConfig, lam: float, capped: bool,
                 gamma: np.ndarray, clock0: np.ndarray, n_eligible: np.ndarray):
        self._config, self._lam, self._capped = config, lam, capped
        self._gamma, self._clock0, self._n_eligible = gamma, clock0, n_eligible
        self._head = config.w0 * gamma[clock0]
        self._s = np.zeros(clock0.shape)
        self._first = np.ones(len(clock0), dtype=bool)

    def values(self, i: int) -> np.ndarray:
        """The base values of step i (0-based)."""
        val = (1.0 - self._lam) * (self._head[:, i] + self._config.alpha * self._s[:, i])
        return np.minimum(self._lam, val) if self._capped else val

    def reject(self, ks: np.ndarray, i: int) -> None:
        """Streams ``ks`` reject at step i (0-based): rebuild their values after it."""
        cols = slice(i + 1, None)
        # clock j after the j-th rejection: 1 + E before the step - E at the rejection
        term = self._gamma[self._clock0[ks, cols] - self._n_eligible[ks, i][:, None]]
        first = self._first[ks]
        if first.any():
            c = self._config
            self._head[ks[first], cols] += (c.alpha - c.w0) * term[first]
            self._first[ks] = False
            ks, term = ks[~first], term[~first]
        self._s[ks, cols] += term


def _reward_part(gp: SpendingSequence, rewards: np.ndarray, i: int) -> np.ndarray:
    """Reward part of step i (0-based) of each stream, from the time-major
    rewards of steps 0..i-1 (0.0 where none was collected) in gamma'.window,
    weighted by gamma'_{i-t} (the kernel's sum is divided by h), added left to right."""
    lo = 0 if gp.window is None else max(0, i - gp.window)
    if gp.kind == "kernel":
        terms = rewards[lo:i]
    else:
        terms = gp.table(i - lo)[i - lo:0:-1, None] * rewards[lo:i]
    if not len(terms):
        return np.zeros(rewards.shape[1])
    total = terms.cumsum(axis=0)[-1]
    return total / gp.h if gp.kind == "kernel" else total


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


def run_batch(name: str, config: ProcedureConfig, pvals, bounds: NullBounds) -> BatchRun:
    """Run procedure ``name`` over K streams: ``pvals`` is K x m, step (k, t)
    has null bound ``bounds.table[bounds.ids[k, t]]``.

    OB/AOB have no step loop: they read gamma at clock 0.  The other rules
    step through time, vectorized over the streams; LORD/ALORD rebuild a
    stream's base values after each of its rejections.
    """
    rule = _checked_rule(name, config)
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 2 or bounds.ids.shape != p.shape:
        raise ValueError("pvals and bounds.ids must both be K x m")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    lam = rule.lam(config)
    eligible = p >= lam
    n_eligible = np.cumsum(eligible, axis=1)  # E through each step
    clock0 = np.ones(p.shape, dtype=np.intp)
    clock0[:, 1:] += n_eligible[:, :-1]
    gamma = config.gamma.table(p.shape[1])
    if rule.investing:
        base = _InvestingBase(config, lam, rule.capped, gamma, clock0, n_eligible)
    else:
        base = (config.alpha * (1.0 - lam)) * gamma[clock0]
    if rule.investing or rule.rewarded:
        alphas, rejects, spent = _step(config, p, eligible, bounds, base, rule.rewarded)
    else:
        alphas, rejects, spent = base, p <= base, base
    return BatchRun(config, rule, alphas, rejects, eligible, spent)


def _step(config: ProcedureConfig, p: np.ndarray, eligible: np.ndarray, bounds: NullBounds,
          bases: np.ndarray | _InvestingBase, rewarded: bool):
    """Alphas, reject flags and spent levels, one step of all streams at a
    time: a rewarded rule adds its reward part and carry to the base and spends
    F(alpha), and investing ``bases`` are rebuilt after each rejection."""
    investing = bases if isinstance(bases, _InvestingBase) else None
    K, m = p.shape
    gp = config.gamma_prime
    alphas = np.empty((m, K))
    rejects = np.empty((m, K), dtype=bool)
    spent = np.empty((m, K)) if rewarded else None     # time-major: step i's F(alpha)
    rewards = np.zeros((m, K)) if rewarded else None  # and its collected rewards
    eps = np.zeros(K)
    for i in range(m):
        base = bases[:, i] if investing is None else investing.values(i)
        alpha = alphas[i]
        if rewarded:
            np.add(base + _reward_part(gp, rewards, i), eps, out=alpha)
        else:
            alpha[:] = base
        reject = np.less_equal(p[:, i], alpha, out=rejects[i])
        if rewarded:
            # rho >= 0, so rho times the eligibility flag is the collected reward
            spent[i] = bounds.cdf(alpha, i)
            np.multiply(alpha - spent[i], eligible[:, i], out=rewards[i])
            eps = np.where(eligible[:, i], 0.0, alpha - base)
        if investing is not None:
            ks = reject.nonzero()[0]
            if len(ks):
                investing.reject(ks, i)
    alphas = np.ascontiguousarray(alphas.T)
    spent = alphas if spent is None else np.ascontiguousarray(spent.T)
    return alphas, np.ascontiguousarray(rejects.T), spent


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
