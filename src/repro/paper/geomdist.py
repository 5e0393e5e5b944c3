"""Geometry distribution with photon migration (chapter 6 future work).

"Currently, the octree representation of the geometry is replicated on
all nodes.  This could limit the size of the input geometry.
Distribution of the geometry would allow computation of a global
illumination solution for very complex scenes. ... In a distributed
environment, a photon is then only passed to those processors that are
responsible for the space the photon is traveling through.  The photons
can then be queued and sent in a batch to the appropriate processors."

This module implements that design:

* space is partitioned into axis-aligned **regions** (a regular grid
  over the scene bounds — the top cells of an octree decomposition);
  each rank owns one or more regions and holds **only the patches
  overlapping its regions** (geometry is distributed, not replicated);
* photons are traced *region-locally*: a hit is only accepted while it
  lies inside the owning region, exactly the property the paper credits
  the octree with ("when an intersection is detected, it is the closest
  intersection and further testing is not needed");
* a photon that exits a region without hitting anything migrates — it is
  queued and shipped to the next region's owner in the round's batch;
* every photon carries its own RNG state, so its path is identical no
  matter which ranks trace its segments — which is what lets the test
  suite assert exact tally equality with a serial reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.binning import BinCoords
from ..core.bintree import BinForest, SplitPolicy
from ..core.simulator import MAX_BOUNCES
from ..geometry.aabb import AABB
from ..geometry.ray import Ray
from ..geometry.scene import Scene
from ..geometry.vec import Vec3
from ..rng import Lcg48
from .mpi import SimComm, run_parallel
from .octree import Octree, intersect
from .physics import Photon, emit_photon, reflect

__all__ = [
    "RegionGrid",
    "GeomDistConfig",
    "GeomRankResult",
    "GeomDistResult",
    "run_geometry_distributed",
    "serial_reference_tallies",
]

#: Nudge applied when handing a photon across a region boundary so the
#: receiving rank's region test sees it strictly inside.
_BOUNDARY_EPS = 1e-9


class RegionGrid:
    """A regular grid of regions over the scene bounds.

    Args:
        bounds: Scene bounding box.
        divisions: Cells per axis (total regions = divisions^3).

    Regions are assigned to ranks round-robin by linear cell index.
    """

    def __init__(self, bounds: AABB, divisions: int) -> None:
        if divisions < 1:
            raise ValueError("divisions must be >= 1")
        self.bounds = bounds
        self.divisions = divisions
        self.lo = bounds.lo
        ext = bounds.extent()
        self.cell = Vec3(
            max(ext.x, 1e-12) / divisions,
            max(ext.y, 1e-12) / divisions,
            max(ext.z, 1e-12) / divisions,
        )

    @property
    def n_regions(self) -> int:
        return self.divisions**3

    def region_of_point(self, p: Vec3) -> int:
        """Linear region index of a point (clamped to the grid)."""
        d = self.divisions

        def clamp_idx(v: float, lo: float, cell: float) -> int:
            i = int((v - lo) / cell)
            return min(max(i, 0), d - 1)

        ix = clamp_idx(p.x, self.lo.x, self.cell.x)
        iy = clamp_idx(p.y, self.lo.y, self.cell.y)
        iz = clamp_idx(p.z, self.lo.z, self.cell.z)
        return (iz * d + iy) * d + ix

    def region_box(self, index: int) -> AABB:
        """Axis-aligned bounds of region *index*."""
        d = self.divisions
        ix = index % d
        iy = (index // d) % d
        iz = index // (d * d)
        lo = Vec3(
            self.lo.x + ix * self.cell.x,
            self.lo.y + iy * self.cell.y,
            self.lo.z + iz * self.cell.z,
        )
        hi = Vec3(lo.x + self.cell.x, lo.y + self.cell.y, lo.z + self.cell.z)
        return AABB(lo, hi)

    def owner_of_region(self, index: int, n_ranks: int) -> int:
        """Round-robin rank assignment of a region."""
        return index % n_ranks

    def owner_of_point(self, p: Vec3, n_ranks: int) -> int:
        """Owning rank of the region containing *p*."""
        return self.owner_of_region(self.region_of_point(p), n_ranks)

    def owners_of_points(self, px, py, pz, n_ranks: int):
        """Vectorized :meth:`owner_of_point` over coordinate arrays.

        Lives next to the scalar form so the clamp/index arithmetic has
        exactly one home.  ``int()`` truncates toward zero, which
        :func:`numpy.trunc` mirrors exactly, so the batched index matches
        the scalar one for every point.
        """
        import numpy as np

        d = self.divisions

        def clamp_idx(v, lo, cell):
            i = np.trunc((v - lo) / cell).astype(np.int64)
            return np.minimum(np.maximum(i, 0), d - 1)

        ix = clamp_idx(px, self.lo.x, self.cell.x)
        iy = clamp_idx(py, self.lo.y, self.cell.y)
        iz = clamp_idx(pz, self.lo.z, self.cell.z)
        return ((iz * d + iy) * d + ix) % n_ranks


@dataclass(frozen=True)
class GeomDistConfig:
    """Parameters for a geometry-distributed run.

    Attributes:
        n_photons: Total photon budget.
        seed: Base seed; photon *i* owns substream ``fork_jump(i * 2^20)``
            of it, making paths rank-independent.
        divisions: Region grid resolution per axis.
        policy: Bin split policy.
        max_rounds: Safety valve on migration rounds.
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    divisions: int = 2
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.divisions < 1:
            raise ValueError("divisions must be >= 1")


#: Wire form of an in-flight photon:
#: (x, y, z, dx, dy, dz, band, bounces, rng_state).
WirePhoton = tuple[float, float, float, float, float, float, int, int, int]


def _photon_stream(seed: int, index: int) -> Lcg48:
    """The private RNG stream of photon *index*.

    Same convention as :func:`repro.core.vectorized.photon_substream`
    (a ``(index + 1) << 20`` jump), which is what lets the emission
    enumeration below run through the batched engine bit-for-bit.
    """
    return Lcg48(seed).fork_jump((index + 1) << 20)


def _pack(photon: Photon, rng: Lcg48) -> WirePhoton:
    return (
        photon.position.x,
        photon.position.y,
        photon.position.z,
        photon.direction.x,
        photon.direction.y,
        photon.direction.z,
        photon.band,
        photon.bounces,
        rng.state,
    )


def _unpack(wire: WirePhoton) -> tuple[Photon, Lcg48]:
    x, y, z, dx, dy, dz, band, bounces, state = wire
    return (
        Photon(Vec3(x, y, z), Vec3(dx, dy, dz), band, bounces),
        Lcg48(state),
    )


@dataclass
class GeomRankResult:
    """Per-rank outcome of a geometry-distributed run."""

    rank: int
    forest: BinForest
    local_patches: int
    photons_emitted: int
    migrations_received: int
    tallies_applied: int
    rounds: int


@dataclass
class GeomDistResult:
    """Merged outcome plus distribution metrics."""

    ranks: list[GeomRankResult]
    total_patches: int

    def tallies_per_patch(self) -> dict[int, int]:
        """Merged per-patch tallies across all ranks."""
        merged: dict[int, int] = {}
        for r in self.ranks:
            for key, tree in r.forest.trees.items():
                merged[key] = merged.get(key, 0) + tree.root.total
        return merged

    def replication_factor(self) -> float:
        """Mean copies of each patch across ranks (1.0 = perfectly
        distributed; == n_ranks would be full replication)."""
        return sum(r.local_patches for r in self.ranks) / self.total_patches

    def max_rank_patches(self) -> int:
        """Geometry memory high-water mark (the quantity distribution
        is meant to shrink)."""
        return max(r.local_patches for r in self.ranks)

    def total_migrations(self) -> int:
        """Photon hand-offs shipped between ranks."""
        return sum(r.migrations_received for r in self.ranks)


def _geomdist_worker(
    comm: SimComm, rank: int, scene: Scene, config: GeomDistConfig
) -> GeomRankResult:
    size = comm.Get_size()
    grid = RegionGrid(scene.bounds(), config.divisions)

    # ---- Distributed geometry: hold only patches overlapping my regions.
    my_regions = [
        r for r in range(grid.n_regions) if grid.owner_of_region(r, size) == rank
    ]
    my_boxes = [grid.region_box(r) for r in my_regions]
    local_patches = [
        p
        for p in scene.patches
        if any(box.overlaps(p.bounds()) for box in my_boxes)
    ]
    local_octree = Octree(local_patches) if local_patches else None

    def region_exit_t(ray: Ray, box: AABB) -> float:
        span = box.intersect_ray(ray)
        if span is None:
            return 0.0
        return span[1]

    def trace_segment(photon: Photon, rng: Lcg48):
        """Trace within my regions; returns ('tally', events...) pieces,
        plus either a migrated wire photon or None (terminated)."""
        events: list[tuple[int, BinCoords, int]] = []
        while True:
            if photon.bounces >= MAX_BOUNCES:
                return events, None
            here = grid.region_of_point(photon.position)
            if grid.owner_of_region(here, size) != rank:
                return events, _pack(photon, rng)  # migrate
            box = grid.region_box(here)
            ray = Ray(photon.position, photon.direction, normalized=True)
            t_exit = region_exit_t(ray, box)
            hit = local_octree.intersect(ray, t_exit + _BOUNDARY_EPS) if local_octree else None
            if hit is None:
                # Leave this region; either migrate or escape the scene.
                exit_point = ray.at(t_exit + _BOUNDARY_EPS)
                if not grid.bounds.contains_point(exit_point):
                    return events, None  # escaped the scene
                photon.position = exit_point
                continue  # next loop decides locality of the new region
            result = reflect(photon, hit, rng)
            if result is None:
                return events, None  # absorbed
            events.append(
                (
                    hit.patch.patch_id,
                    BinCoords(hit.s, hit.t, result.theta, result.r_squared),
                    photon.band,
                )
            )
            photon.advance_to(hit.point, result.direction)

    # ---- Emit my share, tallying emissions locally by patch owner rule:
    # bins live with the rank that owns the *emission point's* region.
    forest = BinForest(config.policy)
    tallies = 0
    emitted = 0
    migrations = 0

    def apply_events(events) -> None:
        nonlocal tallies
        for patch_id, coords, band in events:
            forest.tally(patch_id, coords, band)
            tallies += 1

    # Every rank enumerates all photons but only emits those whose
    # emission point lands in its regions (deterministic: the emission
    # draw comes from the photon's private stream).  The enumeration is
    # the redundant all-photon part of the algorithm, so it runs through
    # the batched vector emitter — bit-exact with emit_photon on each
    # photon's private stream, including the post-emission RNG state the
    # wire format carries.
    from ..core.vectorized import VectorEngine

    emitter = VectorEngine(scene)
    inbox: list[WirePhoton] = []
    pending_events: list = []
    emit_batch_size = 8192
    for batch_start in range(0, config.n_photons, emit_batch_size):
        batch_count = min(emit_batch_size, config.n_photons - batch_start)
        em = emitter.emit_range(config.seed, batch_start, batch_count)
        owners = grid.owners_of_points(em.px, em.py, em.pz, size)
        for j in (owners == rank).nonzero()[0].tolist():
            emitted += 1
            pending_events.append(
                (
                    int(em.patch[j]),
                    BinCoords(em.s[j], em.t[j], em.theta[j], em.r2[j]),
                    int(em.band[j]),
                )
            )
            inbox.append(
                (
                    em.px[j], em.py[j], em.pz[j],
                    em.dx[j], em.dy[j], em.dz[j],
                    int(em.band[j]), 0, int(em.states[j]),
                )
            )
    apply_events(pending_events)

    # ---- Migration rounds: trace local, exchange, repeat until quiet.
    rounds = 0
    while True:
        rounds += 1
        if rounds > config.max_rounds:
            raise RuntimeError("migration did not converge; raise max_rounds")
        outboxes: list[list[WirePhoton]] = [[] for _ in range(size)]
        for wire in inbox:
            photon, rng = _unpack(wire)
            events, migrated = trace_segment(photon, rng)
            apply_events(events)
            if migrated is not None:
                dest = grid.owner_of_point(
                    Vec3(migrated[0], migrated[1], migrated[2]), size
                )
                outboxes[dest].append(migrated)
                migrations += 1
        received = comm.alltoall(outboxes)
        inbox = [w for src in range(size) for w in received[src]]
        in_flight = comm.allreduce_sum(float(len(inbox)))
        if in_flight == 0.0:
            break

    comm.barrier()
    return GeomRankResult(
        rank=rank,
        forest=forest,
        local_patches=len(local_patches),
        photons_emitted=emitted,
        migrations_received=migrations,
        tallies_applied=tallies,
        rounds=rounds,
    )


def run_geometry_distributed(
    scene: Scene, config: GeomDistConfig, n_ranks: int
) -> GeomDistResult:
    """Run the geometry-distributed simulation on *n_ranks* ranks."""
    results = run_parallel(n_ranks, _geomdist_worker, scene, config)
    return GeomDistResult(ranks=list(results), total_patches=len(scene.patches))


def serial_reference_tallies(scene: Scene, config: GeomDistConfig) -> dict[int, int]:
    """Per-patch tallies of the same photons traced serially.

    Each photon uses its private stream, so the distributed run must
    reproduce these counts *exactly* — the correctness anchor for the
    migration protocol.
    """
    counts: dict[int, int] = {}
    for i in range(config.n_photons):
        rng = _photon_stream(config.seed, i)
        record = emit_photon(scene, rng)
        counts[record.patch_id] = counts.get(record.patch_id, 0) + 1
        photon = record.photon
        while True:
            if photon.bounces >= MAX_BOUNCES:
                break
            hit = intersect(scene, Ray(photon.position, photon.direction, normalized=True))
            if hit is None:
                break
            result = reflect(photon, hit, rng)
            if result is None:
                break
            counts[hit.patch.patch_id] = counts.get(hit.patch.patch_id, 0) + 1
            photon.advance_to(hit.point, result.direction)
    return counts
