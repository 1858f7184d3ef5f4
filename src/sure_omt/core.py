"""Shared domain types: step CDF null bounds and per-step decisions.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class StepCdf:
    """Right-continuous step function bounding a discrete null p-value CDF.

    Only the jump points are stored: F(u) is the largest jump point <= u
    (0 if there is none), and F(u) = F(1) for u > 1.  Jump points must be
    strictly increasing, lie in (0, 1], and end at 1, so that F(u) <= u
    holds everywhere and F(u) = u at every jump point.

    ``support`` takes any sequence of the points and holds them as a
    read-only float64 ``memoryview`` over bytes of its own, 8 bytes a point:
    it indexes and iterates as Python floats, and ``np.asarray`` reads it
    without a copy.  Two bounds are equal, and hash alike, when their points
    and their flags are.

    The ``exact_identity`` flag marks the uniform bound F(u) = min(u, 1);
    it is kept distinct from a dense-support approximation so that
    non-rewarded behavior is reproduced bit-exactly.
    """

    support: memoryview
    exact_identity: bool = False

    def __post_init__(self):
        points = array("d", self.support)
        if not points:
            raise ValueError("support must be nonempty")
        prev = 0.0
        for s in points:
            if not prev < s <= 1.0:
                raise ValueError(f"support must be strictly increasing in (0, 1]: {tuple(points)}")
            prev = s
        if points[-1] != 1.0:
            raise ValueError("support must end at 1")
        object.__setattr__(self, "support", memoryview(points.tobytes()).cast("d"))

    @classmethod
    def _unchecked(cls, support: memoryview) -> StepCdf:
        """The bound of a read-only float64 view of points its caller built
        valid (strictly increasing, in (0, 1], ending at 1), without the
        check's loop over them."""
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
        points = self.support
        i = bisect_right(points, u)
        return points[i - 1] if i else 0.0

    def __eq__(self, other):
        if other.__class__ is not StepCdf:
            return NotImplemented
        return self.exact_identity == other.exact_identity and self.support == other.support

    def __hash__(self):
        # equal points in (0, 1] have equal bytes
        return hash((self.support.cast("B"), self.exact_identity))

    def __repr__(self):
        return f"StepCdf(support={tuple(self.support)!r}, exact_identity={self.exact_identity!r})"

    def __reduce__(self):
        return StepCdf, (tuple(self.support), self.exact_identity)


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
