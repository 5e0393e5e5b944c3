"""Shared-memory Photon: the algorithm of Figure 5.2.

All workers share one bin forest; "mutually exclusive access is insured
through the use of semaphores to lock access to nodes in the bin forest,
and follows a multiple reader, single writer protocol."  Locking here is
per bin *tree* (one patch's histogram): that is the granularity at which
the splitting phase of Figure 5.2 excludes other writers while "all other
processes may read any other part of the bin forest".

Workers are real Python threads.  The GIL serialises bytecode, so this
variant demonstrates *correctness* of the protocol (identical invariants
to serial, no lost tallies); wall-clock speedup for the shared-memory
chapter figures comes from the Power Onyx contention model in
:mod:`repro.paper.cluster`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..core.bintree import BinForest, SplitPolicy
from ..core.simulator import TraceStats
from ..geometry.scene import Scene
from ..rng import Lcg48
from .distributed import rank_share
from .scalar import trace_photon

__all__ = [
    "RWLock",
    "SharedForest",
    "SharedConfig",
    "SharedResult",
    "run_shared",
]


class RWLock:
    """A multiple-reader / single-writer lock with contention counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: Times an acquire had to wait (a proxy for memory contention).
        self.contended = 0

    def acquire_read(self) -> None:
        """Enter as a reader; blocks while a writer holds or waits."""
        with self._lock:
            if self._writer or self._writers_waiting:
                self.contended += 1
            # Writers get priority to avoid starvation.
            while self._writer or self._writers_waiting:
                self._readers_ok.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Leave the reader section."""
        with self._lock:
            self._readers -= 1
            if self._readers == 0:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        """Enter as the exclusive writer; blocks out everyone else."""
        with self._lock:
            if self._writer or self._readers:
                self.contended += 1
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._writers_ok.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        """Leave the writer section, waking waiters."""
        with self._lock:
            self._writer = False
            self._writers_ok.notify()
            self._readers_ok.notify_all()

    def __enter__(self) -> "RWLock":
        self.acquire_write()
        return self

    def __exit__(self, *exc) -> None:
        self.release_write()


class SharedForest:
    """A bin forest guarded by per-tree reader/writer locks.

    The forest-wide counters take a dedicated mutex; tree creation takes
    the same mutex so two workers cannot race a tree into existence.
    """

    def __init__(self, policy: SplitPolicy) -> None:
        self.forest = BinForest(policy)
        self._meta_lock = threading.Lock()
        self._tree_locks: dict[int, RWLock] = {}

    def _lock_for(self, patch_id: int) -> RWLock:
        lock = self._tree_locks.get(patch_id)
        if lock is None:
            with self._meta_lock:
                lock = self._tree_locks.get(patch_id)
                if lock is None:
                    lock = RWLock()
                    self._tree_locks[patch_id] = lock
        return lock

    def tally(self, patch_id: int, coords, band: int) -> None:
        """Locked UpdateBinCount + NeedsSplit/Split of Figure 5.2."""
        lock = self._lock_for(patch_id)
        lock.acquire_write()
        try:
            tree = self.forest.tree(patch_id)
            tree.tally(coords, band)
        finally:
            lock.release_write()
        with self._meta_lock:
            self.forest.total_tallies += 1
            self.forest.band_tallies[band] += 1

    def record_emission(self, band: int) -> None:
        """Thread-safe emission accounting."""
        with self._meta_lock:
            self.forest.photons_emitted += 1
            self.forest.band_emitted[band] += 1

    def total_contention(self) -> int:
        """Sum of blocked lock acquisitions across all trees."""
        return sum(lock.contended for lock in self._tree_locks.values())


@dataclass(frozen=True)
class SharedConfig:
    """Parameters of a shared-memory run.

    Attributes:
        n_photons: Total photon budget across all workers.
        seed: Base RNG seed.
        policy: Bin split policy.
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")


@dataclass
class SharedResult:
    """Output of a shared-memory run."""

    forest: BinForest
    stats: TraceStats
    per_worker_photons: list[int]
    lock_contention: int


def _worker(
    shared: SharedForest,
    scene: Scene,
    config: SharedConfig,
    worker: int,
    n_workers: int,
    stats_out: list[TraceStats],
    emitted_out: list[int],
) -> None:
    rng = Lcg48.leapfrog(config.seed, worker, n_workers)
    my_share = rank_share(config.n_photons, worker, n_workers)
    stats = TraceStats()
    for _ in range(my_share):
        events, photon_stats = trace_photon(scene, rng)
        stats.merge(photon_stats)
        shared.record_emission(events[0].band)
        for ev in events:
            shared.tally(ev.patch_id, ev.coords, ev.band)
    stats_out[worker] = stats
    emitted_out[worker] = my_share


def run_shared(scene: Scene, config: SharedConfig, n_workers: int) -> SharedResult:
    """Run the forall loop of Figure 5.2 on *n_workers* threads.

    With ``n_workers == 1`` and the same seed this produces a forest
    identical to :func:`repro.paper.scalar.run_scalar` — the
    equivalence the integration tests pin down.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    shared = SharedForest(config.policy)
    stats_out: list[TraceStats] = [TraceStats() for _ in range(n_workers)]
    emitted_out = [0] * n_workers
    threads = [
        threading.Thread(
            target=_worker,
            args=(shared, scene, config, w, n_workers, stats_out, emitted_out),
            daemon=True,
        )
        for w in range(n_workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = TraceStats()
    for s in stats_out:
        merged.merge(s)
    return SharedResult(
        forest=shared.forest,
        stats=merged,
        per_worker_photons=emitted_out,
        lock_contention=shared.total_contention(),
    )
