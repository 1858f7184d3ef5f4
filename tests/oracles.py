"""Reference semantics the tests compare the package against.

Each oracle computes its result from full histories or from first
principles, independently of the incremental machinery in ``sure_omt``;
``machine_clock`` reads that machinery's clocks, to compare them with
``reindex_clock``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sure_omt.core import StepCdf
from sure_omt.spending import SpendingSequence


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


def machine_clock(proc, j: int) -> int:
    """Clock j of an ``OnlineProcedure`` at its next step, read off the machine's
    own counters (j >= 2: investing rules only), to compare with ``reindex_clock``."""
    return 1 + proc._n_eligible - (0, proc._first, *proc._later._starts)[j]


def alpha_tilde_oracle(base_values: Sequence[float], p_values: Sequence[float],
                       cdfs: Sequence[StepCdf], gamma_prime: SpendingSequence,
                       lam: float, T: int) -> float:
    """Dual-form recursion for the rewarded critical value.

    Computes the value at time T from full prefixes, independently of the
    incremental machinery.  ``prefix[k]`` is sum_{s<=k} gamma'_s, summed left
    to right.
    """
    prefix = np.cumsum(gamma_prime.table(T)).tolist()
    tilde: list[float] = []
    for s in range(1, T + 1):
        v = base_values[s - 1]
        for t in range(1, s):
            if p_values[t - 1] >= lam:
                a = prefix[s - t]
                v += base_values[t - 1]
                v -= (1.0 - a) * tilde[t - 1] + a * cdfs[t - 1](tilde[t - 1])
        tilde.append(v)
    return tilde[T - 1]


def hypergeom_pmf(k: int, margins: tuple[int, int, int]) -> float:
    """P(first cell = k) conditionally on the margins (row1, row2, col1)."""
    r1, r2, c1 = margins
    if min(r1, r2, c1) < 0 or c1 > r1 + r2:
        raise ValueError(f"inconsistent margins {margins}")
    lo, hi = max(0, c1 - r2), min(r1, c1)
    if not lo <= k <= hi:
        raise ValueError(f"cell value {k} outside feasible range [{lo}, {hi}]")

    def log_comb(n, j):
        return (math.lgamma(n + 1) - math.lgamma(j + 1)) - math.lgamma(n - j + 1)
    # the exact test's grouping of the terms, so the two agree bit for bit
    return math.exp(log_comb(r1, k) + log_comb(r2, c1 - k) - log_comb(r1 + r2, c1))


def wealth_curves(gamma: SpendingSequence, alpha: float, cdfs: Sequence[StepCdf],
                  horizon: int, realized_alphas: Sequence[float] | None = None):
    """Nominal and effective wealth trajectories over the horizon.

    Nominal assumes the scheduled levels alpha * gamma_t are fully spent;
    effective charges only the truly achieved level F_t of each critical
    value (the scheduled one, or ``realized_alphas`` when given).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nominal = np.empty(horizon)
    effective = np.empty(horizon)
    nom = eff = alpha
    for i in range(horizon):
        level = alpha * gamma.gamma(i + 1)
        spent = level if realized_alphas is None else realized_alphas[i]
        nom -= level
        eff -= cdfs[i](spent)
        nominal[i] = nom
        effective[i] = eff
    return nominal, effective


def place_signal_oracle(m: int, m3: int, scheme: str, rng: np.random.Generator | None = None):
    """``simulate.place_signal`` written out one branch per scheme."""
    if m3 > m:
        raise ValueError("m3 must not exceed m")
    if m3 == 0:
        return tuple()
    b1 = m3 - m3 // 2
    b2 = m3 // 2
    mid = m // 2
    if scheme == "B":
        idx = range(1, m3 + 1)
    elif scheme == "E":
        idx = range(m - m3 + 1, m + 1)
    elif scheme == "BM":
        start2 = max(mid, b1 + 1)
        idx = list(range(1, b1 + 1)) + list(range(start2, start2 + b2))
    elif scheme == "BE":
        idx = list(range(1, b1 + 1)) + list(range(m - b2 + 1, m + 1))
    elif scheme == "ME":
        start1 = max(1, min(mid, m - b2 - b1 + 1))
        idx = list(range(start1, start1 + b1)) + list(range(m - b2 + 1, m + 1))
    elif scheme == "Random":
        if rng is None:
            raise ValueError("Random placement needs an rng")
        idx = (np.sort(rng.choice(m, size=m3, replace=False)) + 1).tolist()
    else:
        raise ValueError(f"unknown placement {scheme!r}")
    return tuple(idx)
