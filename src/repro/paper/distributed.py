"""Distributed-memory Photon: the algorithm of Figure 5.3.

Each rank traces its share of photons against the replicated geometry.
The *bin forest* is partitioned by ownership units (sections of the
pilot forest, see :mod:`repro.paper.loadbalance`): every tally event
whose unit is owned by another rank is queued, and queues are exchanged
in an all-to-all after each batch ("photons are queued and batched for
transmission ... an all-to-all communication period following each
particle tracing phase").  Receivers replay the events into their own
trees — DetermineBin runs again on the receiving side, exactly as the
pseudo-code shows, so bin *structure* never crosses the wire, only
(unit, coordinates, band) records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from ..core.binning import BinCoords
from ..core.bintree import BinForest, SplitPolicy
from ..core.photon import NUM_BANDS
from ..core.simulator import TraceStats
from ..geometry.scene import Scene
from ..rng import Lcg48
from .loadbalance import (
    Assignment,
    DEFAULT_PILOT_PHOTONS,
    OwnershipMap,
    assign_units,
    pilot_forest,
)
from .mpi import SimComm, run_parallel
from .scalar import trace_photon

__all__ = [
    "DistributedConfig",
    "RankResult",
    "DistributedResult",
    "distributed_worker",
    "run_distributed",
    "serial_replay",
    "build_balance",
    "merge_rank_forests",
    "rank_share",
]

#: Compact wire format for one tally event:
#: (unit_id, s, t, theta, r_squared, band).
WireEvent = tuple[int, float, float, float, float, int]


def rank_share(n_photons: int, rank: int, size: int) -> int:
    """Photons rank *rank* emits out of *n_photons* (first ranks get extras)."""
    base, extra = divmod(n_photons, size)
    return base + (1 if rank < extra else 0)


def merge_rank_forests(forests, policy: Optional[SplitPolicy]) -> BinForest:
    """Union disjoint forest sections into one answer forest.

    The ranks partition tree keys between them, so the union is
    disjoint; counters are summed.  Raises on overlapping ownership
    (protocol violation).
    """
    merged = BinForest(policy)
    for forest in forests:
        for key, tree in forest.trees.items():
            if key in merged.trees:
                raise ValueError(f"unit {key} owned by more than one rank")
            merged.trees[key] = tree
        merged.total_tallies += forest.total_tallies
        for b in range(NUM_BANDS):
            merged.band_tallies[b] += forest.band_tallies[b]
            merged.band_emitted[b] += forest.band_emitted[b]
        merged.photons_emitted += forest.photons_emitted
    return merged


@dataclass(frozen=True)
class DistributedConfig:
    """Parameters of a distributed run.

    Attributes:
        n_photons: Total photons across all ranks.
        seed: Base seed; rank streams are leapfrog substreams of it.
        policy: Bin split policy (identical on every rank).
        batch_size: Photons each rank traces between all-to-all phases.
        balance: 'best-fit' (the paper's scheme) or 'naive'.
        pilot_photons: Photons traced redundantly during load balancing.
        granularity: Target ownership units per rank (see OwnershipMap).
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    batch_size: int = 500
    balance: Literal["best-fit", "naive"] = "best-fit"
    pilot_photons: int = DEFAULT_PILOT_PHOTONS
    granularity: int = 8

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.balance not in ("best-fit", "naive"):
            raise ValueError(f"unknown balance scheme {self.balance!r}")


def build_balance(
    scene: Scene, config: DistributedConfig, n_ranks: int
) -> tuple[OwnershipMap, Assignment]:
    """The redundant load-balancing phase, identical on every rank.

    Returns the ownership map and the unit assignment; both are pure
    functions of (scene, config, n_ranks), so no communication is needed
    to agree on them.
    """
    pilot = pilot_forest(
        scene, config.pilot_photons, seed=config.seed ^ 0x5BD1E995, policy=config.policy
    )
    mapping = OwnershipMap.from_pilot(
        scene, pilot, n_ranks, granularity=config.granularity
    )
    assignment = assign_units(mapping, n_ranks, config.balance)
    return mapping, assignment


@dataclass
class RankResult:
    """What one rank produced.

    Attributes:
        rank: The rank index.
        forest: This rank's owned section of the bin forest (unit-keyed).
        stats: Tracing counters for the photons this rank emitted.
        photons_processed: Tally events *applied* by this rank (local +
            received) — the quantity Table 5.2 reports per processor.
        events_forwarded: Tally events shipped to other ranks.
        photons_emitted: Photons this rank generated.
        batches: All-to-all rounds executed.
        assignment_method: 'best-fit' or 'naive'.
        owned_units: Unit ids this rank owned.
    """

    rank: int
    forest: BinForest
    stats: TraceStats
    photons_processed: int
    events_forwarded: int
    photons_emitted: int
    batches: int
    assignment_method: str
    owned_units: list[int]


def distributed_worker(
    comm: SimComm, rank: int, scene: Scene, config: DistributedConfig
) -> RankResult:
    """The per-rank body of Figure 5.3 (runs under any mpi4py-like comm)."""
    size = comm.Get_size()

    # ---- Load-balancing phase (redundant, deterministic, comm-free).
    mapping, assignment = build_balance(scene, config, size)
    owned = set(assignment.units_of(rank))

    # ---- Main simulation: trace, queue, exchange, apply.
    rng = Lcg48.leapfrog(config.seed, rank, size)
    forest = BinForest(config.policy)
    stats = TraceStats()
    my_share = rank_share(config.n_photons, rank, size)
    # Every rank must join the same number of all-to-all rounds.
    max_share = rank_share(config.n_photons, 0, size)
    rounds = (max_share + config.batch_size - 1) // config.batch_size

    def apply_local(unit_id: int, coords: BinCoords, band: int) -> None:
        lo, hi = mapping.unit_region(unit_id)
        forest.tree(unit_id, lo, hi).tally(coords, band)
        forest.total_tallies += 1
        forest.band_tallies[band] += 1

    processed = 0
    forwarded = 0
    emitted = 0
    for _ in range(rounds):
        todo = min(config.batch_size, my_share - emitted)
        queues: list[list[WireEvent]] = [[] for _ in range(size)]
        for _ in range(max(todo, 0)):
            events, photon_stats = trace_photon(scene, rng)
            stats.merge(photon_stats)
            emitted += 1
            forest.photons_emitted += 1
            forest.band_emitted[events[0].band] += 1
            for ev in events:
                unit_id = mapping.unit_of(ev.patch_id, ev.coords)
                dest = assignment.rank_of_unit(unit_id)
                if dest == rank:
                    apply_local(unit_id, ev.coords, ev.band)
                    processed += 1
                else:
                    queues[dest].append(
                        (
                            unit_id,
                            ev.coords.s,
                            ev.coords.t,
                            ev.coords.theta,
                            ev.coords.r_squared,
                            ev.band,
                        )
                    )
                    forwarded += 1
        received = comm.alltoall(queues)
        for src in range(size):
            if src == rank:
                continue
            for unit_id, s, t, theta, r_squared, band in received[src]:
                if unit_id not in owned:
                    raise ValueError(
                        f"rank {rank} received event for unit {unit_id} it "
                        "does not own — sender assignment disagrees"
                    )
                apply_local(unit_id, BinCoords(s, t, theta, r_squared), band)
                processed += 1

    comm.barrier()
    return RankResult(
        rank=rank,
        forest=forest,
        stats=stats,
        photons_processed=processed,
        events_forwarded=forwarded,
        photons_emitted=emitted,
        batches=rounds,
        assignment_method=assignment.method,
        owned_units=sorted(owned),
    )


@dataclass
class DistributedResult:
    """A completed distributed run: merged answer plus per-rank records."""

    forest: BinForest
    ranks: list[RankResult]
    mapping: OwnershipMap

    @property
    def total_photons(self) -> int:
        return sum(r.photons_emitted for r in self.ranks)

    def processed_per_rank(self) -> list[int]:
        """Table 5.2's column: photons processed by each processor."""
        return [r.photons_processed for r in self.ranks]

    def stats(self) -> TraceStats:
        """Merged tracing counters across all ranks."""
        merged = TraceStats()
        for r in self.ranks:
            merged.merge(r.stats)
        return merged


def run_distributed(
    scene: Scene, config: DistributedConfig, n_ranks: int
) -> DistributedResult:
    """Run the full distributed simulation on *n_ranks* in-process ranks."""
    results = run_parallel(n_ranks, distributed_worker, scene, config)
    forest = merge_rank_forests([r.forest for r in results], config.policy)
    mapping, _ = build_balance(scene, config, n_ranks)
    return DistributedResult(forest=forest, ranks=list(results), mapping=mapping)


def serial_replay(
    scene: Scene, config: DistributedConfig, n_ranks: int
) -> BinForest:
    """Replay the distributed schedule serially (test oracle).

    Traces every rank's photon stream in rank order, applying all events
    to one unit-keyed forest.  Per-unit *totals* must match a real
    distributed run exactly (tallying is order-independent in totals);
    with ``n_ranks == 1`` the tally order is also identical, so the full
    forest matches node-for-node.
    """
    mapping, _ = build_balance(scene, config, n_ranks)
    forest = BinForest(config.policy)
    for rank in range(n_ranks):
        rng = Lcg48.leapfrog(config.seed, rank, n_ranks)
        for _ in range(rank_share(config.n_photons, rank, n_ranks)):
            events, _ = trace_photon(scene, rng)
            forest.photons_emitted += 1
            forest.band_emitted[events[0].band] += 1
            for ev in events:
                unit_id = mapping.unit_of(ev.patch_id, ev.coords)
                lo, hi = mapping.unit_region(unit_id)
                forest.tree(unit_id, lo, hi).tally(ev.coords, ev.band)
                forest.total_tallies += 1
                forest.band_tallies[ev.band] += 1
    return forest
