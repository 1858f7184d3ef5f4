"""Online procedure state machines.

Four base rules (online Bonferroni, its adaptive variant, alpha-investing
LORD, adaptive LORD) and their rewarded counterparts, which add back the
unspent fraction of past critical values through a reward spending
sequence.  The step API is emit_alpha() -> observe(p, bound): the critical
value for time T is fixed before the p-value at T is seen.

Two base formulas serve the four rules: online Bonferroni and LORD are the
adaptive rules with lambda = 0, whose re-indexation clocks are plain time.
A procedure keeps four history lists (eligibility flags, alphas, reject
flags, null bounds); without a reward, the alphas are the base values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
        rule = parse_name(name)
        if rule.investing and config.w0 is None:
            raise ValueError(f"{name} requires an initial wealth w0")
        if rule.rewarded and config.gamma_prime is None:
            raise ValueError("rewarded procedures require gamma_prime")
        self.config = config
        self.rewarded = rule.rewarded
        self._investing = rule.investing
        self._lam = config.lam if rule.base in ("aob", "alord") else 0.0  # adaptive rules
        self._alpha = config.alpha
        self._w0 = config.w0
        self._g = config.gamma
        self._gp = config.gamma_prime
        self._capped = rule.capped
        # history, appended once per step
        self.lam_flags: list[bool] = []       # p_t >= lambda
        self.alphas: list[float] = []
        self.rejects: list[bool] = []
        self.cdfs: list[StepCdf] = []
        self.r_count = 0
        # re-indexation clocks: clock j reads 1 + E - starts[j], where E counts
        # the eligible steps so far and starts[j] is E at the j-th rejection
        self._n_eligible = 0
        self._starts: list[int] = [0]
        # eligible positive rewards: the last _window steps for a gamma' that
        # is 0 beyond them (kernel, explicit), else numpy arrays grown by doubling
        gp = self._gp
        if gp is None or gp.kind not in ("kernel", "explicit"):
            self._window = None
        else:
            self._window = gp.h if gp.kind == "kernel" else len(gp.values)
        self._win_t: deque[int] = deque()
        self._win_rho: deque[float] = deque()
        self._n_ledger = 0
        self._ledger_t = self._ledger_rho = None  # made on the first reward
        self._gp_table = ()                   # gamma'_k at index k, k < len
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
        s = 0.0
        for start in starts[2:]:
            s += memo[c0 - start]
        val = (1.0 - self._lam) * (w0 * memo[c0] + (alpha - w0) * b1 + alpha * s)
        if self._capped:
            val = min(self._lam, val)
        return val

    def _clock(self, j: int) -> int:
        """Value of re-indexation clock j (0 <= j <= rejections) at the next step."""
        return 1 + self._n_eligible - self._starts[j]

    # -- reward convolution -------------------------------------------------

    def _sure_part(self, T: int) -> float:
        gp = self._gp
        if self._window is not None:
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
            vals = gp.values
            s = 0.0
            for t, rho in zip(wt, wr):
                s += vals[T - t - 1] * rho
            return s
        n = self._n_ledger
        if not n:
            return 0.0
        table = self._gp_table
        if len(table) <= T:
            # grow geometrically: one rebuild per doubling of T
            gp._extend(2 * T)
            table = self._gp_table = np.array(gp._memo[:2 * T + 1])
        # cumsum adds left to right, as the scalar sum over the ledger would
        terms = table[T - self._ledger_t[:n]] * self._ledger_rho[:n]
        return float(np.cumsum(terms)[-1])

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
        rho = alpha - bound(alpha)
        eligible = p >= self._lam
        self.lam_flags.append(eligible)
        self.alphas.append(alpha)
        self.rejects.append(reject)
        self.cdfs.append(bound)
        if self.rewarded and eligible and rho > 0.0:
            if self._window is not None:
                self._win_t.append(t)
                self._win_rho.append(rho)
            else:
                self._append_ledger(t, rho)
        if eligible:
            self._n_eligible += 1
        self._eps = 0.0 if eligible else alpha - base
        if reject:
            self._starts.append(self._n_eligible)
            self.r_count += 1
        self._t_next = t + 1
        return Decision(t=t, p=p, alpha=alpha, reject=reject, rho=rho,
                        base_part=base, sure_part=sure, eps_part=eps,
                        r_count=self.r_count)

    def _append_ledger(self, t: int, rho: float) -> None:
        n = self._n_ledger
        if n == 0:
            self._ledger_t = np.empty(64, dtype=np.int64)
            self._ledger_rho = np.empty(64)
        elif n == len(self._ledger_t):
            self._ledger_t = np.concatenate((self._ledger_t, np.empty(n, dtype=np.int64)))
            self._ledger_rho = np.concatenate((self._ledger_rho, np.empty(n)))
        self._ledger_t[n] = t
        self._ledger_rho[n] = rho
        self._n_ledger = n + 1

    def step(self, p: float, bound: StepCdf | None = None) -> Decision:
        self.emit_alpha()
        return self.observe(p, bound)

    def run(self, stream) -> list[Decision]:
        """Run over (p, bound) pairs or StreamRecord objects, in order."""
        out = []
        for item in stream:
            if hasattr(item, "null_bound"):
                out.append(self.step(item.p, item.null_bound))
            else:
                p, bound = item
                out.append(self.step(p, bound))
        return out

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


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    worst_excess: float
    worst_t: int | None
    n_checked: int


def _audit(proc: OnlineProcedure, mfdr: bool, alphas=None, tol: float = 1e-9) -> AuditReport:
    lam = proc._lam
    alpha = proc.config.alpha
    budget = (1.0 - lam) * alpha
    n = proc.t
    worst = 0.0
    worst_t = None
    r = 0
    # without a reward the alphas are the base values, which are spent in full
    vals = proc.alphas if alphas is None else list(alphas)
    if proc.rewarded or alphas is not None:
        spent = [proc.cdfs[i](vals[i]) for i in range(n)]
    else:
        spent = vals
    cum = 0.0
    for i in range(n):
        if mfdr and proc.rejects[i]:
            r += 1
        rhs = budget * max(1, r) if mfdr else budget
        excess = vals[i] + cum - rhs
        if excess > worst:
            worst, worst_t = excess, i + 1
        if proc.lam_flags[i]:
            cum += spent[i]
    return AuditReport(ok=worst <= tol, worst_excess=worst, worst_t=worst_t, n_checked=n)


def audit_fwer_budget(proc: OnlineProcedure, alphas=None, tol: float = 1e-9) -> AuditReport:
    """Check the family-wise error budget along the realized history.

    For base procedures this is the condition on the base values; for
    rewarded procedures the realized critical values enter through their
    truly spent level F_t(alpha_t).  ``alphas`` substitutes a corrupted
    sequence for negative-control testing.
    """
    return _audit(proc, mfdr=False, alphas=alphas, tol=tol)


def audit_mfdr_budget(proc: OnlineProcedure, alphas=None, tol: float = 1e-9) -> AuditReport:
    """Same as the FWER audit but against the rejection-scaled budget."""
    return _audit(proc, mfdr=True, alphas=alphas, tol=tol)
