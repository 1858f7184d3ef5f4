"""Shared domain types: step CDF null bounds and per-step decisions.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step function bounding a discrete null p-value CDF.

    Only the jump points are stored: F(u) is the largest jump point <= u
    (0 if there is none), and F(u) = F(1) for u > 1.  Jump points must be
    strictly increasing, lie in (0, 1], and end at 1, so that F(u) <= u
    holds everywhere and F(u) = u at every jump point.

    The ``exact_identity`` flag marks the uniform bound F(u) = min(u, 1);
    it is kept distinct from a dense-support approximation so that
    non-rewarded behavior is reproduced bit-exactly.
    """

    support: tuple[float, ...]
    exact_identity: bool = False

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        prev = 0.0
        for s in self.support:
            if not prev < s <= 1.0:
                raise ValueError(f"support must be strictly increasing in (0, 1]: {self.support}")
            prev = s
        if self.support[-1] != 1.0:
            raise ValueError("support must end at 1")

    @classmethod
    def _unchecked(cls, support: tuple[float, ...]) -> StepCdf:
        """The bound of a support its caller built valid (strictly increasing,
        in (0, 1], ending at 1), without the check's loop over it."""
        self = object.__new__(cls)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "exact_identity", False)
        return self

    def __call__(self, u: float) -> float:
        """Evaluate F(u) for u >= 0 (u > 1 is treated as u = 1)."""
        if u < 0:
            raise ValueError("u must be nonnegative")
        if u > 1.0:
            u = 1.0
        if self.exact_identity:
            return u
        i = bisect.bisect_right(self.support, u)
        return self.support[i - 1] if i else 0.0


IDENTITY_BOUND = StepCdf(support=(1.0,), exact_identity=True)


class Decision(NamedTuple):
    """Outcome of one online test: critical value, its breakdown, and the reward.

    A named tuple: it unpacks and compares equal as the tuple of its fields."""

    t: int
    p: float
    alpha: float      # may exceed 1 for investing procedures
    reject: bool
    rho: float        # alpha - F(alpha)
    base_part: float
    sure_part: float
    eps_part: float
    r_count: int      # rejections up to and including t
