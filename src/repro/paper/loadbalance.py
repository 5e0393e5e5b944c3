"""Load balancing for distributed Photon (Table 5.2).

"Initially all processors are assigned ownership of the entire geometry.
During this load balancing phase, k photons are generated and traced
through the scene ... each processor goes through the photons in the
same order, thus producing the same bin forest.  At this point, we are
able to use the photon counts for each bin to determine an appropriate
load balance."

The ownable items are therefore *sections of the bin forest* — bins, not
whole patches (a single luminaire's tree would otherwise pin every
emission tally to one processor).  We build an :class:`OwnershipMap`
from the pilot forest: its leaves are the candidate units, and any unit
whose pilot count exceeds the per-rank target is refined by uniform
midpoint splits (statistically justified: the 3-sigma test already
judged those leaves uniform, so halving the region halves the expected
load).  Packing units onto processors is bin packing (NP-complete, as
the paper notes); the greedy Best-Fit heuristic — "a bin is added to the
processor with the smallest photon count" — is implemented alongside the
naive contiguous assignment it beats in Table 5.2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..core.binning import BinCoords, BinNode, NUM_AXES
from ..core.bintree import BinForest, SplitPolicy
from ..geometry.scene import Scene
from ..rng import Lcg48
from .scalar import trace_photon

__all__ = [
    "OwnershipMap",
    "UnitInfo",
    "Assignment",
    "pilot_forest",
    "pilot_counts",
    "assign_units",
    "load_imbalance",
    "DEFAULT_PILOT_PHOTONS",
]

#: Pilot photons for the balancing phase.  The paper notes k "does not
#: appear to depend on the size of geometry"; a couple thousand photons
#: give stable per-bin frequencies for all three test scenes.
DEFAULT_PILOT_PHOTONS = 2000

#: Forced-refinement axis order for oversized units: surface position
#: first (spatial sections of a patch), then the angular coordinates.
_REFINE_AXES = (0, 1, 3, 2)


def pilot_forest(
    scene: Scene, k: int = DEFAULT_PILOT_PHOTONS, seed: int = 99, policy: Optional[SplitPolicy] = None
) -> BinForest:
    """Trace *k* pilot photons into a fresh forest (patch-keyed).

    Every rank calls this with identical arguments and — because the
    stream and traversal are deterministic — derives the identical
    forest, exactly the redundant-but-cheap scheme of the paper ("the
    period of redundant work lasts less than a second").
    """
    if k < 1:
        raise ValueError("pilot photon count must be positive")
    rng = Lcg48(seed)
    forest = BinForest(policy or SplitPolicy())
    for _ in range(k):
        events, _ = trace_photon(scene, rng)
        for event in events:
            forest.tally(event.patch_id, event.coords, event.band)
        forest.photons_emitted += 1
        forest.band_emitted[events[0].band] += 1
    return forest


def pilot_counts(scene: Scene, k: int = DEFAULT_PILOT_PHOTONS, seed: int = 99) -> dict[int, int]:
    """Per-patch pilot tallies (diagnostics; the map below is per-bin)."""
    forest = pilot_forest(scene, k, seed)
    counts = {pid: 0 for pid in range(len(scene.patches))}
    counts.update({pid: t.root.total for pid, t in forest.trees.items()})
    return counts


@dataclass(frozen=True)
class UnitInfo:
    """One ownable section of the bin forest.

    Attributes:
        unit_id: Dense index; the distributed forest keys trees by it.
        patch_id: Patch whose domain this unit covers a sub-region of.
        lo / hi: 4-D region bounds (s, t, theta, r^2).
        estimated_count: Pilot tallies expected in the region (halved per
            forced split).
    """

    unit_id: int
    patch_id: int
    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    estimated_count: float


class _UnitNode:
    """Region-tree node used for unit lookup (lean: no tallies)."""

    __slots__ = ("lo", "hi", "axis", "low", "high", "unit_id")

    def __init__(self, lo, hi) -> None:
        self.lo = lo
        self.hi = hi
        self.axis: Optional[int] = None
        self.low: Optional["_UnitNode"] = None
        self.high: Optional["_UnitNode"] = None
        self.unit_id: int = -1


class OwnershipMap:
    """Deterministic (patch, coords) -> unit mapping shared by all ranks.

    Build with :meth:`from_pilot`.  The map copies the pilot forest's
    tree structure and force-refines any leaf whose count exceeds
    ``total / (n_ranks * granularity)`` so Best-Fit always has enough
    pieces to balance with.
    """

    def __init__(self) -> None:
        self.units: list[UnitInfo] = []
        self._roots: dict[int, _UnitNode] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_pilot(
        cls,
        scene: Scene,
        pilot: BinForest,
        n_ranks: int,
        *,
        granularity: int = 8,
        max_extra_depth: int = 16,
    ) -> "OwnershipMap":
        """Derive the unit map from a pilot forest.

        Args:
            scene: Provides the full patch id range (unlit patches still
                need owners for late tallies).
            pilot: The identical-on-all-ranks pilot forest.
            n_ranks: Processor count the assignment will target.
            granularity: Target units per rank; higher gives finer
                balance at more lookup depth.
            max_extra_depth: Cap on forced splits below a pilot leaf.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        if granularity < 1:
            raise ValueError("granularity must be positive")
        total = max(pilot.total_tallies, 1)
        target = max(total / (n_ranks * granularity), 1.0)
        mapping = cls()
        for pid in range(len(scene.patches)):
            tree = pilot.trees.get(pid)
            if tree is None:
                root = _UnitNode((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 2 * 3.141592653589793, 1.0))
                mapping._finish_leaf(root, pid, 0.0)
                mapping._roots[pid] = root
                continue
            root = mapping._copy(tree.root, pid, target, max_extra_depth)
            mapping._roots[pid] = root
        return mapping

    def _copy(self, node: BinNode, pid: int, target: float, extra: int) -> _UnitNode:
        unit = _UnitNode(node.lo, node.hi)
        if not node.is_leaf:
            unit.axis = node.split_axis
            unit.low = self._copy(node.low_child, pid, target, extra)  # type: ignore[arg-type]
            unit.high = self._copy(node.high_child, pid, target, extra)  # type: ignore[arg-type]
            return unit
        self._refine(unit, pid, float(node.total), target, extra, 0)
        return unit

    def _refine(
        self, unit: _UnitNode, pid: int, count: float, target: float, extra: int, depth: int
    ) -> None:
        if count <= target or depth >= extra:
            self._finish_leaf(unit, pid, count)
            return
        axis = _REFINE_AXES[depth % NUM_AXES]
        mid = 0.5 * (unit.lo[axis] + unit.hi[axis])
        lo_hi = tuple(mid if i == axis else unit.hi[i] for i in range(NUM_AXES))
        hi_lo = tuple(mid if i == axis else unit.lo[i] for i in range(NUM_AXES))
        unit.axis = axis
        unit.low = _UnitNode(unit.lo, lo_hi)
        unit.high = _UnitNode(hi_lo, unit.hi)
        self._refine(unit.low, pid, count / 2.0, target, extra, depth + 1)
        self._refine(unit.high, pid, count / 2.0, target, extra, depth + 1)

    def _finish_leaf(self, unit: _UnitNode, pid: int, count: float) -> None:
        unit.unit_id = len(self.units)
        self.units.append(UnitInfo(unit.unit_id, pid, unit.lo, unit.hi, count))

    # -- queries --------------------------------------------------------------------

    @property
    def n_units(self) -> int:
        return len(self.units)

    def unit_of(self, patch_id: int, coords: BinCoords) -> int:
        """The unit id owning *coords* on *patch_id*."""
        node = self._roots[patch_id]
        while node.axis is not None:
            mid = 0.5 * (node.lo[node.axis] + node.hi[node.axis])
            node = node.low if coords.axis_value(node.axis) < mid else node.high  # type: ignore[assignment]
        return node.unit_id

    def unit_region(self, unit_id: int) -> tuple[tuple, tuple]:
        """(lo, hi) 4-D bounds of a unit's region."""
        info = self.units[unit_id]
        return info.lo, info.hi

    def patch_of(self, unit_id: int) -> int:
        """The patch a unit belongs to."""
        return self.units[unit_id].patch_id


@dataclass(frozen=True)
class Assignment:
    """A unit -> rank ownership map with its predicted load.

    Attributes:
        owner: unit_id -> rank (dense list).
        predicted_load: Per-rank pilot-count totals under this map.
        method: 'naive' or 'best-fit' (report labelling).
    """

    owner: tuple[int, ...]
    predicted_load: tuple[float, ...]
    method: str

    def rank_of_unit(self, unit_id: int) -> int:
        """Owning rank of a unit."""
        return self.owner[unit_id]

    def units_of(self, rank: int) -> list[int]:
        """All unit ids owned by *rank*."""
        return [u for u, r in enumerate(self.owner) if r == rank]


def assign_units(mapping: OwnershipMap, n_ranks: int, method: str) -> Assignment:
    """Pack ownership units onto ranks.

    Args:
        method: 'best-fit' — greedy: each unit (in decreasing pilot-count
            order) goes to the lightest rank; or 'naive' — contiguous
            unit-id blocks, blind to load.

    Ties break deterministically so every rank computes the identical
    assignment without communication.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    n = mapping.n_units
    owner = [0] * n
    load = [0.0] * n_ranks
    if method == "naive":
        block = (n + n_ranks - 1) // n_ranks
        for unit_id in range(n):
            rank = min(unit_id // block, n_ranks - 1)
            owner[unit_id] = rank
            load[rank] += mapping.units[unit_id].estimated_count
    elif method == "best-fit":
        heap: list[tuple[float, int]] = [(0.0, r) for r in range(n_ranks)]
        heapq.heapify(heap)
        ordered = sorted(
            range(n),
            key=lambda u: (-mapping.units[u].estimated_count, u),
        )
        for unit_id in ordered:
            current, rank = heapq.heappop(heap)
            owner[unit_id] = rank
            current += mapping.units[unit_id].estimated_count
            load[rank] = current
            heapq.heappush(heap, (current, rank))
    else:
        raise ValueError(f"unknown method {method!r}")
    return Assignment(tuple(owner), tuple(load), method)


def load_imbalance(loads: Sequence[float]) -> float:
    """max/mean load ratio; 1.0 is perfect balance.

    The Table 5.2 naive column shows ~1.5 (47.9k vs a 33.6k mean); the
    Best-Fit column is ~1.02.
    """
    if not loads:
        raise ValueError("loads must be non-empty")
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean
