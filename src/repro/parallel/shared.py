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
:mod:`repro.cluster`.

Two engines, two disciplines:

* ``engine="scalar"`` keeps the historical Figure 5.2 demonstration —
  every tally goes through the locked forest exactly as the paper's
  pseudo-code updates it.
* ``engine="vector"`` drops the per-tree locks entirely in favour of a
  **sharded reduction**: threads trace private event blocks on
  contiguous photon-index shares, then each thread builds the bin trees
  of the patches it *owns* (round-robin
  :func:`repro.parallel.procpool.partition_patches` ownership) from the
  canonical global event sequence, and the disjoint sections merge
  lock-free via :func:`repro.core.bintree.merge_rank_forests` —
  the same discipline the process pool proved.  The result is
  node-for-node **identical to a serial vector run for any worker
  count** (the old locked replay only guaranteed per-patch totals), and
  ``lock_contention`` is structurally zero.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..core.bintree import BinForest, SplitPolicy
from ..core.simulator import ENGINES, TraceStats, trace_photon
from ..geometry.scene import Scene
from ..rng import Lcg48
from .procpool import rank_share

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
        engine: ``"scalar"`` traces per photon on leapfrog rank
            substreams through the per-tree-locked forest (the
            historical Figure 5.2 behaviour); ``"vector"`` gives each
            worker a contiguous photon-index share traced in NumPy
            batches on per-photon substreams and builds the forest
            lock-free by ownership-sharded reduction — the whole forest
            is then node-for-node identical to a serial vector run for
            *every* worker count.
        batch_size: Photons per vector batch (vector engine only).
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    engine: str = "scalar"
    batch_size: int = 4096

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick from {ENGINES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


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


class _ThreadMap:
    """A ``starmap`` executor over real threads, in job order.

    Lets the vector path reuse the process pool's phase-2 builder
    (:func:`repro.parallel.procpool.build_forest_parallel`) unchanged:
    anything pool-shaped with ``starmap`` works.  A job's exception is
    re-raised in the caller, matching ``multiprocessing.Pool`` semantics.
    """

    def starmap(self, fn, jobs) -> list:
        jobs = list(jobs)
        results: list = [None] * len(jobs)
        errors: list = [None] * len(jobs)

        def call(i: int, job) -> None:
            try:
                results[i] = fn(*job)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors[i] = exc

        threads = [
            threading.Thread(target=call, args=(i, job), daemon=True)
            for i, job in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for exc in errors:
            if exc is not None:
                raise exc
        return results


def _run_shared_vector(
    scene: Scene, config: SharedConfig, n_workers: int, arrays=None
) -> SharedResult:
    """Vector-engine body of :func:`run_shared`: sharded, lock-free.

    Phase 1 traces contiguous photon-index shares on worker threads into
    *private* event blocks (no shared state touched while tracing).
    Phase 2 reuses the process pool's ownership discipline: patches are
    partitioned round-robin, each worker replays its owned rows of the
    canonical global event sequence into a private forest, and the
    disjoint sections merge without a single lock
    (:func:`~repro.parallel.procpool.build_forest_parallel`, which also
    re-keys trees into first-tally order).  The forest is therefore
    byte-identical to a serial vector run for any worker count — and
    ``lock_contention`` is zero by construction, not by luck.

    Shard offsets come from one prefix pass over
    :func:`~repro.parallel.procpool.rank_share` (the old per-worker
    recomputation was O(workers^2)).

    Memory trade-off, stated honestly: the ownership reduction needs the
    full event multiset before partitioning, so peak memory scales with
    the run's total events — the same envelope as the process pool's
    parent — where the old locked replay streamed one ``batch_size``
    chunk at a time into the forest.  For budgets where that matters,
    the locked ``engine="scalar"`` path remains the streaming option.
    """
    from ..core.vectorized import EventBatch, VectorEngine
    from .procpool import _shard_starts, book_emissions, build_forest_parallel

    # One engine for all threads: every array trace_range reads is
    # immutable and its tracing state is per-call, so workers share the
    # compiled arrays — the thread-level analogue of the procpool plane.
    # The only cross-thread writes are the patch_tests/box_tests
    # diagnostic counters, whose unsynchronised += may undercount; the
    # answer (events, stats) never reads them.
    engine = VectorEngine(scene, arrays=arrays, batch_size=config.batch_size)
    shards = _shard_starts(config.n_photons, n_workers)
    stats_out: list[TraceStats] = [TraceStats() for _ in range(n_workers)]
    blocks: list[EventBatch] = [EventBatch.empty() for _ in range(n_workers)]

    def trace(worker: int, start: int, count: int) -> None:
        events, stats = engine.trace_range(config.seed, start, count)
        blocks[worker] = events.sorted_canonical()
        stats_out[worker] = stats

    _ThreadMap().starmap(
        trace,
        [(w, start, count) for w, (start, count) in enumerate(shards) if count > 0],
    )
    # Contiguous ascending shards, concatenated in worker order: the
    # global sequence is already canonical (photon, bounce) order.
    events = EventBatch.concat(blocks)
    forest = build_forest_parallel(_ThreadMap(), events, config.policy, n_workers)
    book_emissions(forest, events, config.n_photons)
    merged = TraceStats()
    for s in stats_out:
        merged.merge(s)
    return SharedResult(
        forest=forest,
        stats=merged,
        per_worker_photons=[count for _, count in shards],
        lock_contention=0,
    )


def run_shared(
    scene: Scene, config: SharedConfig, n_workers: int, arrays=None
) -> SharedResult:
    """Run the forall loop of Figure 5.2 on *n_workers* threads.

    With ``n_workers == 1`` and the same seed this produces a forest
    identical to :func:`repro.core.simulator.run_scalar` — the
    equivalence the integration tests pin down.  Under
    ``config.engine == "vector"`` the locked replay is replaced by the
    sharded lock-free reduction of :func:`_run_shared_vector`, and the
    forest matches the serial vector engine node-for-node for *every*
    worker count (the golden suite pins the bytes).

    Args:
        arrays: Optional pre-compiled
            :class:`~repro.core.vectorized.SceneArrays` (e.g. from a
            :class:`repro.api.SceneProgram`) so the vector path reuses
            the session-compiled scene instead of recompiling; ignored
            by the scalar engine.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if config.engine == "vector":
        return _run_shared_vector(scene, config, n_workers, arrays)
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
