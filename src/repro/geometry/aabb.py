"""Axis-aligned bounding boxes: the cells of the octree decomposition."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .ray import Ray
from .vec import Vec3

__all__ = ["AABB"]


class AABB:
    """A closed axis-aligned box ``[lo, hi]``.

    Degenerate (planar) boxes are legal — polygons are flat, so leaf
    bounds frequently have zero extent along one axis.  All predicates
    treat the boundary as inside.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Vec3, hi: Vec3) -> None:
        if lo.x > hi.x or lo.y > hi.y or lo.z > hi.z:
            raise ValueError(f"inverted AABB: lo={lo!r} hi={hi!r}")
        self.lo = lo
        self.hi = hi

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Vec3]) -> "AABB":
        """Tight bounds of a non-empty point set."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("from_points needs at least one point") from None
        lox, loy, loz = first.x, first.y, first.z
        hix, hiy, hiz = first.x, first.y, first.z
        for p in it:
            if p.x < lox:
                lox = p.x
            if p.y < loy:
                loy = p.y
            if p.z < loz:
                loz = p.z
            if p.x > hix:
                hix = p.x
            if p.y > hiy:
                hiy = p.y
            if p.z > hiz:
                hiz = p.z
        return cls(Vec3(lox, loy, loz), Vec3(hix, hiy, hiz))

    @classmethod
    def union_all(cls, boxes: Sequence["AABB"]) -> "AABB":
        """Smallest box containing every box in *boxes* (non-empty)."""
        if not boxes:
            raise ValueError("union_all needs at least one box")
        out = boxes[0]
        for b in boxes[1:]:
            out = out.union(b)
        return out

    # -- queries ---------------------------------------------------------------

    def center(self) -> Vec3:
        """Midpoint of the box."""
        return Vec3(
            0.5 * (self.lo.x + self.hi.x),
            0.5 * (self.lo.y + self.hi.y),
            0.5 * (self.lo.z + self.hi.z),
        )

    def extent(self) -> Vec3:
        """Edge lengths along each axis."""
        return Vec3(
            self.hi.x - self.lo.x,
            self.hi.y - self.lo.y,
            self.hi.z - self.lo.z,
        )

    def surface_area(self) -> float:
        """Total area of the six faces."""
        e = self.extent()
        return 2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)

    def volume(self) -> float:
        """Enclosed volume (zero for planar boxes)."""
        e = self.extent()
        return e.x * e.y * e.z

    def contains_point(self, p: Vec3) -> bool:
        """True when *p* lies inside or on the boundary."""
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )

    def overlaps(self, other: "AABB") -> bool:
        """True when the boxes share any point (touching counts)."""
        return (
            self.lo.x <= other.hi.x
            and other.lo.x <= self.hi.x
            and self.lo.y <= other.hi.y
            and other.lo.y <= self.hi.y
            and self.lo.z <= other.hi.z
            and other.lo.z <= self.hi.z
        )

    def union(self, other: "AABB") -> "AABB":
        """Smallest box containing both operands."""
        return AABB(
            Vec3(
                min(self.lo.x, other.lo.x),
                min(self.lo.y, other.lo.y),
                min(self.lo.z, other.lo.z),
            ),
            Vec3(
                max(self.hi.x, other.hi.x),
                max(self.hi.y, other.hi.y),
                max(self.hi.z, other.hi.z),
            ),
        )

    def expanded(self, margin: float) -> "AABB":
        """Box grown by *margin* on every side (margin >= 0)."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        m = Vec3(margin, margin, margin)
        return AABB(self.lo - m, self.hi + m)

    # -- ray intersection (slab method) -----------------------------------------

    def intersect_ray(self, ray: Ray, t_max: float = float("inf")) -> Optional[tuple[float, float]]:
        """Parametric overlap of *ray* with the box.

        Returns ``(t_enter, t_exit)`` clipped to ``[0, t_max]``, or ``None``
        when the ray misses.  A ray starting inside yields ``t_enter == 0``.
        """
        o = ray.origin
        d = ray.direction
        t_enter = -float("inf")
        t_exit = float("inf")

        # Per-axis slab test with an explicit parallel branch: a ray
        # travelling exactly along a slab plane (0 * inf = NaN with the
        # reciprocal trick) must treat the boundary as inside, or rays
        # down octree cell boundaries silently miss everything.
        for ov, dv, lov, hiv in (
            (o.x, d.x, self.lo.x, self.hi.x),
            (o.y, d.y, self.lo.y, self.hi.y),
            (o.z, d.z, self.lo.z, self.hi.z),
        ):
            if dv == 0.0:
                if ov < lov or ov > hiv:
                    return None
                continue  # parallel and inside the slab: no constraint
            inv = 1.0 / dv
            t1 = (lov - ov) * inv
            t2 = (hiv - ov) * inv
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > t_enter:
                t_enter = t1
            if t2 < t_exit:
                t_exit = t2

        if t_enter > t_exit or t_exit < 0.0 or t_enter > t_max:
            return None
        return (max(t_enter, 0.0), min(t_exit, t_max))

    # -- octree support ----------------------------------------------------------

    def octant(self, index: int) -> "AABB":
        """The *index*-th of the 8 equal child cells.

        Bit 0 selects the high-x half, bit 1 high-y, bit 2 high-z — the
        ordering used throughout :mod:`repro.paper.octree`.
        """
        if not 0 <= index < 8:
            raise ValueError(f"octant index must be in [0, 8), got {index}")
        c = self.center()
        lo = Vec3(
            c.x if index & 1 else self.lo.x,
            c.y if index & 2 else self.lo.y,
            c.z if index & 4 else self.lo.z,
        )
        hi = Vec3(
            self.hi.x if index & 1 else c.x,
            self.hi.y if index & 2 else c.y,
            self.hi.z if index & 4 else c.z,
        )
        return AABB(lo, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AABB):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"AABB(lo={self.lo!r}, hi={self.hi!r})"
