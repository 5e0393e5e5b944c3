"""Four-dimensional histogram bins (Figures 4.5 and 4.6).

Each bin describes a subset of one patch's radiance domain: bilinear
surface position ``(s, t)`` in [0,1]^2 and outgoing direction in
cylindrical coordinates ``theta`` in [0, 2 pi) and **squared** projected
radius ``r^2`` in [0, 1).  The squared radius is the paper's deliberate
choice: under the Nusselt analog a Lambertian distribution is uniform on
the unit disc, i.e. uniform in ``(theta, r^2)``, so halving ``r^2`` halves
a diffuse photon population — which splitting the elevation angle (or the
un-squared radius) would not.

Speculative binning: every tally also records, for each of the four axes,
which half of the bin the sample fell in.  Those four daughter tallies
drive both *when* to split (3-sigma binomial test) and *which axis* to
split (the one with the largest statistic — "we split where there is the
largest gradient").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..montecarlo.stats import split_statistic
from .photon import NUM_BANDS

__all__ = ["BinCoords", "BinNode", "AXIS_NAMES", "NUM_AXES", "TWO_PI"]

TWO_PI = 2.0 * math.pi
NUM_AXES = 4
AXIS_NAMES = ("s", "t", "theta", "r2")


@dataclass(frozen=True)
class BinCoords:
    """A point in the 4-D histogram domain."""

    s: float
    t: float
    theta: float
    r_squared: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s out of range: {self.s}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t out of range: {self.t}")
        if not 0.0 <= self.theta < TWO_PI + 1e-12:
            raise ValueError(f"theta out of range: {self.theta}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared out of range: {self.r_squared}")

    def axis_value(self, axis: int) -> float:
        """Coordinate along *axis* (0=s, 1=t, 2=theta, 3=r^2)."""
        if axis == 0:
            return self.s
        if axis == 1:
            return self.t
        if axis == 2:
            return self.theta
        if axis == 3:
            return self.r_squared
        raise IndexError(axis)


class BinNode:
    """A node of one patch's 4-D bin tree.

    Leaves hold tallies; internal nodes hold the split axis and two
    children.  The node's *path* — the sequence of (axis, side) choices
    from the root — identifies it globally, which the distributed
    algorithm relies on when replaying remote tallies.
    """

    __slots__ = (
        "lo",
        "hi",
        "counts",
        "total",
        "low_counts",
        "split_axis",
        "low_child",
        "high_child",
        "depth",
        "path",
    )

    def __init__(
        self,
        lo: tuple[float, float, float, float],
        hi: tuple[float, float, float, float],
        depth: int = 0,
        path: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.counts = [0] * NUM_BANDS
        self.total = 0
        self.low_counts = [0] * NUM_AXES
        self.split_axis: Optional[int] = None
        self.low_child: Optional["BinNode"] = None
        self.high_child: Optional["BinNode"] = None
        self.depth = depth
        self.path = path

    # -- structure ---------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.split_axis is None

    def mid(self, axis: int) -> float:
        """Midpoint of the region along *axis*."""
        return 0.5 * (self.lo[axis] + self.hi[axis])

    def width(self, axis: int) -> float:
        """Region extent along *axis*."""
        return self.hi[axis] - self.lo[axis]

    def contains(self, coords: BinCoords) -> bool:
        """True when *coords* lies inside this bin's region."""
        for axis in range(NUM_AXES):
            v = coords.axis_value(axis)
            if not self.lo[axis] <= v <= self.hi[axis]:
                return False
        return True

    def child_for(self, coords: BinCoords) -> "BinNode":
        """The daughter containing *coords* (internal nodes only)."""
        axis = self.split_axis
        if axis is None:
            raise ValueError("leaf nodes have no children")
        if coords.axis_value(axis) < self.mid(axis):
            return self.low_child  # type: ignore[return-value]
        return self.high_child  # type: ignore[return-value]

    # -- tallying ------------------------------------------------------------------

    def tally(self, coords: BinCoords, band: int) -> None:
        """Record one photon departure in this leaf (speculative binning)."""
        if not 0 <= band < NUM_BANDS:
            # A negative band would index from the end of ``counts``.
            raise ValueError(f"band out of range: {band}")
        self.total += 1
        self.counts[band] += 1
        low = self.low_counts
        if coords.s < self.mid(0):
            low[0] += 1
        if coords.t < self.mid(1):
            low[1] += 1
        if coords.theta < self.mid(2):
            low[2] += 1
        if coords.r_squared < self.mid(3):
            low[3] += 1

    def best_split_axis(self) -> tuple[int, float]:
        """Axis with the largest daughter-difference statistic, and its value."""
        best_axis = 0
        best_stat = -1.0
        total = self.total
        for axis in range(NUM_AXES):
            low = self.low_counts[axis]
            stat = split_statistic(low, total - low)
            if stat > best_stat:
                best_stat = stat
                best_axis = axis
        return best_axis, best_stat

    def split(self, axis: int) -> None:
        """Create the two daughters along *axis*, distributing tallies.

        The speculative half-count gives the daughters' exact totals.  Band
        composition of each half was not tracked (tracking it per axis
        would quadruple tally cost), so band counts are apportioned
        proportionally with a largest-remainder rounding that preserves
        both the per-band sums and the daughter totals — the invariant
        ``sum(leaf counts) == photons tallied`` that tests enforce.
        """
        if not self.is_leaf:
            raise ValueError("node already split")
        mid = self.mid(axis)
        depth = self.depth + 1
        low = BinNode(
            self.lo, self.hi[:axis] + (mid,) + self.hi[axis + 1:], depth,
            self.path + ((axis, 0),),
        )
        high = BinNode(
            self.lo[:axis] + (mid,) + self.lo[axis + 1:], self.hi, depth,
            self.path + ((axis, 1),),
        )

        counts = self.counts
        low_total = self.low_counts[axis]
        high_total = self.total - low_total
        low.total = low_total
        high.total = high_total

        # Largest-remainder apportionment of band counts into the low child.
        if self.total > 0:
            fraction = low_total / self.total
            ideals = [count * fraction for count in counts]
            floors = [int(ideal) for ideal in ideals]
            missing = low_total - sum(floors)
            if missing > 0:
                remainders = sorted(
                    ((ideal - f, band)
                     for band, (ideal, f) in enumerate(zip(ideals, floors))),
                    reverse=True,
                )
                for _, band in remainders[:missing]:
                    floors[band] += 1
            floors = [min(f, count) for f, count in zip(floors, counts)]
            # Fix any shortfall produced by the clamping above.
            deficit = low_total - sum(floors)
            band = 0
            while deficit > 0 and band < NUM_BANDS:
                take = min(counts[band] - floors[band], deficit)
                floors[band] += take
                deficit -= take
                band += 1
            low.counts = floors
            high.counts = [count - f for count, f in zip(counts, floors)]

        # Daughters restart speculative tallies at the uniform prior.
        low.low_counts = [low_total // 2] * NUM_AXES
        high.low_counts = [high_total // 2] * NUM_AXES

        self.split_axis = axis
        self.low_child = low
        self.high_child = high
        # Interior nodes keep their aggregate counts: the viewing stage
        # reads radiance from leaves, but aggregates make pruning and
        # consistency checks O(1).

    # -- measures ---------------------------------------------------------------------

    def parameter_area(self) -> float:
        """The (s, t) footprint as a fraction of the whole patch."""
        return self.width(0) * self.width(1)

    def projected_solid_angle(self) -> float:
        """Nusselt measure of the angular cell: 0.5 * d(theta) * d(r^2)."""
        return 0.5 * self.width(2) * self.width(3)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"split@{AXIS_NAMES[self.split_axis]}"
        return (
            f"BinNode({kind}, depth={self.depth}, total={self.total}, "
            f"counts={self.counts})"
        )
