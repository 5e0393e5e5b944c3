"""Process-parallel vector backend: true multi-core photon tracing.

The paper's shared-memory variant (:mod:`repro.paper.shared`) runs
real threads, but the GIL serialises Python bytecode, so it demonstrates
the locking protocol rather than speed.  This module is the serving
path's multi-core backend: it shards the photon index range across a
process pool of :class:`~repro.core.vectorized.VectorEngine`
workers and reassembles the answer in two phases:

1. **Trace phase** — each worker traces a contiguous shard of photon
   indices (per-photon counter-based substreams make shards independent)
   and writes its tally events into a preallocated shared-memory result
   block, returning only a tiny descriptor
   (:class:`repro.parallel.resultplane.ShardResult`).

2. **Build phase** — patch ids are partitioned round-robin into
   ownership sections; each worker re-reads *its* patches' events
   straight from the shard blocks
   (:func:`repro.parallel.resultplane.take_owned`) and replays them (in
   canonical photon order, so every tree sees exactly the serial tally
   sequence) into a private :class:`BinForest`.  The parent unions the
   disjoint sections (:func:`repro.core.bintree.merge_rank_forests`).

One transport each way
----------------------
:class:`PhotonPool` owns a persistent pool whose initializer builds each
worker's engine **once**, attached zero-copy to the shared-memory scene
plane (:mod:`repro.parallel.shmplane`) the parent published — no
per-worker scene pickle, no per-worker octree re-compilation, one copy
of the acceleration structure in RAM no matter the worker count or the
scene size.  Events come back through per-shard result blocks
(:mod:`repro.parallel.resultplane`), which the pool allocates lazily at
the first trace, recycles verbatim across warm requests, regrows (old
segment unlinked first) when a bigger budget arrives, and unlinks at
close — the same no-leak contract the scene plane honours.  A request's
events therefore cross the process boundary as O(workers) descriptors in
both phases.

There is no second transport.  A segment that cannot be created
(``OSError`` from a full ``/dev/shm``, ``RuntimeError`` where
``multiprocessing.shared_memory`` does not exist) propagates to the
caller with no segment of the failed step left behind — a failed
publish forks nothing, a failed regrow has already unlinked the old
blocks — and the pool stays serviceable: the next trace allocates
afresh.  The one per-shard exception is block **overflow** — capacity
is an estimate, so a shard that outruns it ships its columns inline,
loudly (:class:`repro.parallel.resultplane.ResultPlaneWarning`), and
the build phase drops to :func:`build_forest_parallel` for that request.

Workers are a ``ProcessPoolExecutor`` (:class:`_WorkerPool`).  A
worker that dies mid-request
fails the request with ``BrokenProcessPool`` instead of leaving it
waiting for a result that never comes; the pool closes itself and its
result blocks, and the next request starts a fresh one.

The in-process seam — :func:`run_procpool` with an injected ``pool=``,
:func:`trace_events_parallel`, :func:`_trace_shard` — forks nothing and
touches no shared memory; it is the golden suite's no-fork oracle for
the same two phases.

Determinism contract
--------------------
Because tallies replay in canonical order and ownership partitions the
tree keys, the merged forest is **identical node-for-node** to a
single-process vector run (and to the scalar substream oracle) for any
worker count, batch size or merge order — the property the determinism
suite locks down.  Three invariants carry the proof:

* **Substream independence** — photon *i* draws only from its private
  counter-based substream, so shard boundaries cannot change any draw.
* **Canonical event order** — every shard sorts its events by
  ``(photon, bounce)`` before shipping, and shards cover contiguous
  ascending index ranges, so concatenation replays the exact serial
  tally sequence.
* **Merge-order invariance** — ownership sections are disjoint by
  construction (``patch_id % workers``), so the union is a permutation-
  free merge; trees are then re-keyed into first-tally order to make
  the serialised answer byte-stable.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from ..core.bintree import BinForest, SplitPolicy, merge_rank_forests
from ..core.photon import NUM_BANDS
from ..core.simulator import SimulationConfig, SimulationResult, TraceStats
from ..core.vectorized import (
    EVENT_FIELDS,
    EventBatch,
    SceneArrays,
    VectorEngine,
    apply_events,
)
from ..geometry.scene import Scene
from . import resultplane, shmplane
from .resultplane import (
    ResultPlane,
    ShardResult,
    block_capacity,
    gather_shards,
    pack_shard,
)

__all__ = [
    "PhotonPool",
    "run_procpool",
    "trace_events_parallel",
    "build_forest_parallel",
    "partition_patches",
    "rank_share",
]


def rank_share(n_photons: int, rank: int, size: int) -> int:
    """Photons rank *rank* emits out of *n_photons* (first ranks get extras)."""
    base, extra = divmod(n_photons, size)
    return base + (1 if rank < extra else 0)


def _shard_starts(n_photons: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, count)`` photon shards, one per worker.

    The single prefix pass over :func:`rank_share` — every caller that
    needs shard offsets uses this instead of re-summing per rank.
    """
    starts = []
    offset = 0
    for w in range(workers):
        share = rank_share(n_photons, w, workers)
        starts.append((offset, share))
        offset += share
    return starts


def _event_columns(events: EventBatch) -> tuple:
    """EventBatch -> plain array tuple (what a build job's pickle carries).

    Column order is :data:`repro.core.vectorized.EVENT_FIELDS` — the
    same layout the result blocks use.
    """
    fields = events.export_fields()
    return tuple(fields[name] for name, _ in EVENT_FIELDS)


def _trace_shard(
    scene: Scene,
    fluorescence,
    batch_size: int,
    seed: int,
    start: int,
    count: int,
) -> ShardResult:
    """Self-contained pool target: trace photons ``start .. start+count``.

    Builds a throwaway engine from *scene* — the in-process seam for
    injected pools (tests) and the semantics reference for the
    persistent-pool path below.  Always returns an inline-payload
    :class:`ShardResult` (nothing forked, so there is no plane to write
    into).
    """
    engine = VectorEngine(scene, fluorescence=fluorescence, batch_size=batch_size)
    events, stats = engine.trace_range(seed, start, count)
    return pack_shard(events.sorted_canonical(), stats, None, -1)


#: Per-process engine of a :class:`PhotonPool` worker, built once by the
#: pool initializer over the attached scene plane.
_POOL_ENGINE: Optional[VectorEngine] = None


def _init_pool_worker(handle, fluorescence, batch_size: int) -> None:
    """Pool initializer: construct this worker's engine exactly once.

    The engine's arrays are zero-copy views into the shared segment
    behind *handle* — nothing big was pickled, nothing is compiled here.
    """
    global _POOL_ENGINE
    _POOL_ENGINE = VectorEngine(
        arrays=shmplane.attach(handle),
        fluorescence=fluorescence,
        batch_size=batch_size,
    )


def _trace_shard_pooled(
    seed: int, start: int, count: int, result_handle, slot: int
) -> ShardResult:
    """Pool target for persistent workers: trace on the initializer's engine.

    The canonical events land in result block *slot* and only the
    descriptor returns (or, on overflow, the inline payload).
    """
    events, stats = _POOL_ENGINE.trace_range(seed, start, count)
    return pack_shard(events.sorted_canonical(), stats, result_handle, slot)


def _build_section(policy: SplitPolicy, arrays: tuple) -> BinForest:
    """Pool target: replay one ownership section's events into a forest."""
    forest = BinForest(policy)
    apply_events(forest, EventBatch(*arrays))
    return forest


def _build_section_pooled(
    policy: SplitPolicy,
    result_handle,
    counts: tuple,
    worker_id: int,
    workers: int,
) -> BinForest:
    """Pool target: build one ownership section from the result blocks.

    The zero-pickle build phase: the job carries only the block handle
    plus per-slot live counts; the worker re-reads its owned rows from
    the blocks the trace phase just filled
    (:func:`repro.parallel.resultplane.take_owned`).
    """
    forest = BinForest(policy)
    apply_events(
        forest, resultplane.take_owned(result_handle, counts, worker_id, workers)
    )
    return forest


def partition_patches(patch_ids: np.ndarray, workers: int) -> np.ndarray:
    """Round-robin patch -> worker ownership (stable for any worker count)."""
    return patch_ids % workers


def trace_events_parallel(
    pool, scene: Scene, config: SimulationConfig
) -> tuple[EventBatch, TraceStats]:
    """Phase 1 on an injected pool: hand the scene to every job.

    The entry point for pool-shaped in-process executors (the no-fork
    oracle); :class:`PhotonPool` runs the same phase against persistent
    workers attached to the scene plane, with events returning through
    result blocks.
    """
    jobs = [
        (scene, config.fluorescence, config.batch_size, config.seed, start, count)
        for start, count in _shard_starts(config.n_photons, config.workers)
        if count > 0
    ]
    return gather_shards(pool.starmap(_trace_shard, jobs), None)


def _reorder_first_tally(merged: BinForest, events: EventBatch) -> BinForest:
    """Present trees in first-tally order so the merged forest serialises
    byte-for-byte like a single-process vector run."""
    unique, first_index = np.unique(events.patch, return_index=True)
    order = unique[np.argsort(first_index)]
    merged.trees = {int(pid): merged.trees[int(pid)] for pid in order}
    return merged


def build_forest_parallel(
    pool, events: EventBatch, policy: SplitPolicy, workers: int
) -> BinForest:
    """Phase 2: ownership-sharded forest build + disjoint-section merge.

    The build that ships each section's events with its job: used by
    injected pools and by :meth:`PhotonPool.run` when a trace shard
    overflowed its block; otherwise the pool runs the block-reading
    build (:func:`_build_section_pooled`).
    """
    owner = partition_patches(events.patch, workers)
    jobs = []
    for w in range(workers):
        rows = np.nonzero(owner == w)[0]
        if rows.size == 0:
            continue
        jobs.append((policy, _event_columns(events.take(rows))))
    sections = pool.starmap(_build_section, jobs) if jobs else []
    merged = merge_rank_forests(sections, policy)
    return _reorder_first_tally(merged, events)


class _WorkerPool:
    """The worker processes behind :class:`PhotonPool`.

    A ``ProcessPoolExecutor`` with the ``starmap``/``apply`` surface of
    ``multiprocessing.Pool``.  Not that pool itself: when one of its
    workers dies mid-task it quietly starts a replacement and the dead
    task's result never arrives, so the request waits forever.  The
    executor instead fails every pending task with ``BrokenProcessPool``.
    """

    def __init__(self, workers: int, initializer, initargs: tuple) -> None:
        import multiprocessing as mp

        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context(),
            initializer=initializer,
            initargs=initargs,
        )
        # Start the workers now, as multiprocessing.Pool does, rather
        # than at the first request.
        self._executor.submit(int)

    def starmap(self, fn, jobs) -> list:
        futures = [self._executor.submit(fn, *job) for job in jobs]
        return [future.result() for future in futures]

    def apply(self, fn, args: tuple = ()):
        return self._executor.submit(fn, *args).result()

    def shutdown(self, terminate: bool = False) -> None:
        """Stop the workers once the queued tasks are done, or, with
        *terminate*, drop the queue and stop them mid-task."""
        if not terminate:
            self._executor.shutdown(wait=True)
            return
        # The executor has no public way to stop a running task, and
        # ``shutdown`` forgets its processes, so take them first.
        processes = list((self._executor._processes or {}).values())
        manager = self._executor._executor_manager_thread
        self._executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
        if manager is not None:
            manager.join()


class PhotonPool:
    """A persistent worker pool over one shared-memory scene plane.

    Publishing, worker startup, and segment cleanup happen once per pool
    rather than once per run, so repeated :meth:`run` calls (parameter
    sweeps, benchmarks, services) pay only tracing time.  Always use the
    context manager (or call :meth:`close` in a ``finally``): it closes
    **and unlinks** the pool's segments even when a worker raises, which
    is the no-leak contract the lifecycle tests enforce.

    Example::

        with PhotonPool(scene, config) as pool:
            result = pool.run()

    Args:
        scene: Scene the pool serves; one plane is published for it.
        config: Pool sizing (``workers``) and engine parameters
            (``fluorescence``, ``batch_size``) come from here.
        arrays: Optional pre-compiled :class:`SceneArrays` for *scene*.
            When this pool itself publishes a plane it publishes these
            instead of recompiling the scene — for direct pool users
            that already hold compiled arrays.  (The session API does
            not publish through the pool at all: it acquires a
            registry-owned plane and passes *plane_handle* instead.)
        plane_handle: Optional handle of an **externally owned** plane
            (typically from
            :func:`repro.parallel.shmplane.plane_registry`).  The pool
            attaches its workers to that segment, never publishes, and
            never unlinks it on :meth:`close` — the owner (registry /
            session) controls the segment lifetime.
    """

    def __init__(
        self,
        scene: Scene,
        config: SimulationConfig,
        *,
        arrays: Optional[SceneArrays] = None,
        plane_handle=None,
    ) -> None:
        self.scene = scene
        self.config = config
        self.arrays = arrays
        self.plane_handle = plane_handle
        #: The scene plane this pool published and owns (None before
        #: :meth:`start`, and always None under *plane_handle*).
        self.plane = None
        self._pool = None
        #: The per-shard result blocks, allocated lazily by the first
        #: trace and recycled across warm requests (None until then).
        self.result_blocks: Optional[ResultPlane] = None
        #: The previous trace call's :class:`ShardResult` descriptors in
        #: job order, with overflow payloads stripped after the gather
        #: (:meth:`run` reuses the slot/count fields for the build
        #: phase).  ``last_result_wire_bytes`` records what the full
        #: results — payloads included — cost to cross the process
        #: boundary; the benchmark reads it.
        self.last_shard_results: list[ShardResult] = []
        self.last_result_wire_bytes = 0
        #: Warm traces that recycled the existing result blocks instead
        #: of allocating a segment — the amortized serving tier's
        #: top-up ranges land here, so the counter is how benchmarks
        #: show repeated small ranges stay allocation-free.
        self.result_block_reuses = 0

    def start(self) -> "PhotonPool":
        """Publish the plane (unless externally owned) and fork the workers.

        A plane that cannot be published raises (``OSError`` /
        ``RuntimeError``, see :func:`repro.parallel.shmplane.publish`)
        with nothing allocated and no worker forked.
        """
        if self._pool is not None:
            return self
        handle = self.plane_handle
        if handle is None:
            self.plane = shmplane.publish(
                self.arrays if self.arrays is not None
                else SceneArrays(self.scene)
            )
            handle = self.plane.handle
        config = self.config
        try:
            self._pool = _WorkerPool(
                config.workers,
                _init_pool_worker,
                (handle, config.fluorescence, config.batch_size),
            )
        except BaseException:
            # The no-leak contract covers a failed fork too: a published
            # segment must not outlive the pool that never started.
            self.close()
            raise
        return self

    def run(self, config: Optional[SimulationConfig] = None) -> SimulationResult:
        """Run one photon budget; the result matches the serial engines.

        *config* defaults to the pool's own; passing a different one
        (other budget/seed/policy) reuses the warm workers.  Engine
        parameters and the shard/ownership count always come from the
        pool's construction config — the pool has exactly that many
        workers, with engines built once at :meth:`start`.  (Answers do
        not depend on the count either way; that is the determinism
        contract.)  A *config* whose ``fluorescence`` differs is
        rejected: it changes the physics, and the frozen worker engines
        could not honour it — silently mislabelling the result is the
        one failure mode worse than an error.
        """
        if self._pool is None:
            self.start()
        workers = self.config.workers
        config = config if config is not None else self.config
        if config.fluorescence != self.config.fluorescence:
            raise ValueError(
                "run() config changes fluorescence, but worker engines are "
                "built once at pool start; create a new PhotonPool for a "
                "different fluorescence spec"
            )
        if config.n_photons == 0:
            return SimulationResult(
                BinForest(config.policy), TraceStats(), config, self.scene.name
            )
        events, stats = self.trace_range(config.seed, 0, config.n_photons)
        results = self.last_shard_results
        with self._closing_if_broken():
            if any(r.overflow for r in results):
                # An overflowed shard's events are not in its block, so
                # the block-reading build would miss them: ship the
                # gathered events with the build jobs instead.
                forest = build_forest_parallel(
                    self._pool, events, config.policy, workers
                )
            else:
                forest = self._build_forest_from_blocks(
                    events, results, config.policy, workers
                )
        return _finish_result(forest, events, stats, config, self.scene.name)

    @contextmanager
    def _closing_if_broken(self):
        """Close this pool when a worker died under the enclosed tasks.

        The executor fails every pending task with ``BrokenProcessPool``,
        which propagates to the caller; the workers, the result blocks
        and a plane this pool published go with it, and the next
        :meth:`run` or :meth:`trace_range` starts a fresh pool.
        """
        try:
            yield
        except BrokenProcessPool:
            self.close(terminate=True)
            raise

    def _build_forest_from_blocks(
        self,
        events: EventBatch,
        results: Sequence[ShardResult],
        policy: SplitPolicy,
        workers: int,
    ) -> BinForest:
        """Phase 2 over the result plane: O(1) job arguments per section.

        Each non-empty ownership section gets one job carrying only the
        block handle, the per-slot live counts, and its owner id; the
        worker re-reads and filters the blocks still holding this
        trace's events itself (:func:`_build_section_pooled`).  Empty
        sections are skipped parent-side, exactly like
        :func:`build_forest_parallel`.
        """
        counts = [0] * self.result_blocks.blocks
        for r in results:
            counts[r.slot] = r.count
        present = np.unique(events.patch % workers)
        jobs = [
            (policy, self.result_blocks.handle, tuple(counts), int(w), workers)
            for w in present
        ]
        sections = self._pool.starmap(_build_section_pooled, jobs) if jobs else []
        merged = merge_rank_forests(sections, policy)
        return _reorder_first_tally(merged, events)

    def _ensure_result_blocks(self, max_share: int) -> ResultPlane:
        """The result blocks for a trace whose largest shard is *max_share*.

        Allocates on first use, recycles when the existing blocks fit,
        regrows (unlinking the old segment first) when the budget grew.
        An allocation failure propagates with ``result_blocks`` left
        ``None`` and no segment behind, so the next trace simply
        allocates afresh.
        """
        # Scenes that know their events-per-photon (loader metadata or
        # generator estimate) get blocks sized for *this* scene; scenes
        # without a hint keep the blanket worst-case factor.  getattr:
        # scenes unpickled from pre-hint answer pipelines lack the attr.
        capacity = block_capacity(
            max_share, getattr(self.scene, "events_per_photon_hint", None)
        )
        blocks = self.config.workers
        if self.result_blocks is not None:
            if self.result_blocks.fits(blocks, capacity):
                self.result_block_reuses += 1
                return self.result_blocks
            old, self.result_blocks = self.result_blocks, None
            old.close()
            old.unlink()
        self.result_blocks = ResultPlane(blocks, capacity)
        return self.result_blocks

    def trace_range(
        self, seed: int, start: int, count: int
    ) -> tuple[EventBatch, TraceStats]:
        """Phase 1 only: trace photons ``start .. start+count`` on the
        warm workers, returning globally canonical events plus counters.

        The streaming building block behind
        :meth:`repro.api.RenderSession.simulate_stream`: the caller
        chunks the photon budget, tallies each returned block itself
        (:func:`repro.core.vectorized.tally_block`), and gets a forest
        byte-identical to :meth:`run` — contiguous ascending shards on
        per-photon substreams make the concatenation canonical exactly
        as in the one-shot path.

        Each call's events come back as block descriptors (streamed
        serving stays free of per-batch event pickling); the blocks are
        recycled by the next call, after the canonical merge has copied
        the events out.
        """
        if self._pool is None:
            self.start()
        shards = [
            (offset, share)
            for offset, share in _shard_starts(count, self.config.workers)
            if share > 0
        ]
        blocks = (
            self._ensure_result_blocks(max(share for _, share in shards))
            if shards
            else None
        )
        jobs = [
            (seed, start + offset, share, blocks.handle, slot)
            for slot, (offset, share) in enumerate(shards)
        ]
        with self._closing_if_broken():
            results = self._pool.starmap(_trace_shard_pooled, jobs)
        gathered = gather_shards(results, blocks)
        self.last_result_wire_bytes = resultplane.wire_bytes(results)
        # The gather copied every event out; drop overflow payloads so
        # they cannot pin O(events) arrays in the parent until the next
        # trace (descriptors alone drive the build phase).
        for r in results:
            r.payload = None
        self.last_shard_results = results
        return gathered

    def close(self, terminate: bool = False) -> None:
        """Tear down workers, then close and unlink both planes (idempotent).

        The result blocks release with the scene plane — also on the
        worker-exception path (the context manager routes here), which
        is the crash half of the no-leak contract the lifecycle tests
        cover for the return transport too.
        """
        if self._pool is not None:
            self._pool.shutdown(terminate)
            self._pool = None
        if self.plane is not None:
            self.plane.close()
            self.plane.unlink()
            self.plane = None
        self.last_shard_results = []
        if self.result_blocks is not None:
            self.result_blocks.close()
            self.result_blocks.unlink()
            self.result_blocks = None

    def __enter__(self) -> "PhotonPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # A raising worker leaves queued tasks behind; terminate instead
        # of draining them, but release the segment either way.
        self.close(terminate=exc_type is not None)


def _finish_result(
    forest: BinForest,
    events: EventBatch,
    stats: TraceStats,
    config: SimulationConfig,
    scene_name: str,
) -> SimulationResult:
    """Set the merged forest's emission counters from the event record
    and wrap the result."""
    forest.photons_emitted = config.n_photons
    counts = events.emission_band_counts()
    for b in range(NUM_BANDS):
        forest.band_emitted[b] = counts[b]
    return SimulationResult(forest, stats, config, scene_name)


def run_procpool(
    scene: Scene, config: SimulationConfig, pool=None
) -> SimulationResult:
    """Run *config* on a process pool; result matches the serial engines.

    Args:
        scene: Scene to trace.
        config: Simulation parameters; ``config.workers`` sizes the pool.
        pool: Optional pre-built pool-like object exposing ``starmap``
            (used by tests to inject an in-process executor; nothing
            forks, so no shared memory is touched).
    """
    if config.n_photons == 0:
        return SimulationResult(
            BinForest(config.policy), TraceStats(), config, scene.name
        )
    if pool is not None:
        events, stats = trace_events_parallel(pool, scene, config)
        forest = build_forest_parallel(pool, events, config.policy, config.workers)
        return _finish_result(forest, events, stats, config, scene.name)
    with PhotonPool(scene, config) as photon_pool:
        return photon_pool.run()
