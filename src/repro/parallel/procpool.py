"""Process-parallel vector backend: true multi-core photon tracing.

The shared-memory variant (:mod:`repro.parallel.shared`) runs real
threads, but the GIL serialises Python bytecode, so it demonstrates the
locking protocol rather than speed.  This module is the repo's first
genuinely multi-core path: it shards the photon index range across a
``multiprocessing`` pool of :class:`~repro.core.vectorized.VectorEngine`
workers and reassembles the answer in two phases:

1. **Trace phase** — each worker traces a contiguous shard of photon
   indices (per-photon counter-based substreams make shards independent)
   and writes its tally events into a preallocated shared-memory result
   block, returning only a tiny descriptor
   (:class:`repro.parallel.resultplane.ShardResult`); with the result
   plane off, the events ride the pickle as packed NumPy arrays.

2. **Build phase** — patch ids are partitioned round-robin into
   ownership sections; each worker replays *its* patches' events (in
   canonical photon order, so every tree sees exactly the serial tally
   sequence) into a private :class:`BinForest`.  With the result plane
   on, workers re-read their owned rows straight from the shard blocks
   (:func:`repro.parallel.resultplane.take_owned`) instead of receiving
   them by pickle.  The parent unions the disjoint sections with the
   existing distributed-merge machinery
   (:func:`repro.parallel.distributed.merge_rank_forests`).

Scene transport: the shared-memory plane
----------------------------------------
:class:`PhotonPool` owns a persistent pool whose initializer builds each
worker's engine **once**.  On large scenes the parent publishes the
compiled :class:`~repro.core.vectorized.SceneArrays` (flat octree
included) into a shared-memory plane (:mod:`repro.parallel.shmplane`)
and workers attach zero-copy — no per-worker scene pickle, no per-worker
octree re-compilation, one copy of the acceleration structure in RAM no
matter the worker count.  ``SimulationConfig.share_plane`` selects the
transport: ``"on"``, ``"off"`` (pickle the scene, the original
behaviour), or ``"auto"`` (plane when ``shared_memory`` exists and the
scene is large enough to repay publishing).  Both transports carry the
exact same bytes, so answers are identical either way.

Result transport: the shared-memory result plane
------------------------------------------------
``SimulationConfig.result_plane`` selects the *outbound* transport the
same way: ``"on"``/``"off"``/``"auto"`` (plane whenever the platform has
shared memory — result bytes scale with the photon budget, so there is
no scene-size threshold).  :class:`PhotonPool` allocates the per-shard
blocks lazily at the first trace, recycles them verbatim across warm
requests, regrows them (old segment unlinked first) when a bigger
budget arrives, and unlinks them at close — the same no-leak contract
the scene plane honours.  With the plane live, a request's events cross
the process boundary as O(workers) descriptors in both phases; see
:mod:`repro.parallel.resultplane` for the block layout and the
overflow/fallback rules.

Determinism contract
--------------------
Because tallies replay in canonical order and ownership partitions the
tree keys, the merged forest is **identical node-for-node** to a
single-process vector run (and to the scalar substream oracle) for any
worker count, batch size, merge order, or scene transport — the property
the determinism suite locks down.  Three invariants carry the proof:

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

Workers inherit the parent's ``config.accel`` intersection mode; since
every accelerator is bit-exact (see :mod:`repro.core.vectorized`), the
choice affects throughput only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.bintree import BinForest, SplitPolicy
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
from . import resultplane
from .distributed import merge_rank_forests, rank_share
from .resultplane import (
    ResultPlane,
    ShardResult,
    block_capacity,
    gather_shards,
    pack_shard,
    resolve_result_plane,
)

__all__ = [
    "PhotonPool",
    "run_procpool",
    "trace_events_parallel",
    "build_forest_parallel",
    "partition_patches",
    "resolve_share_plane",
    "resolve_result_plane",
    "PLANE_MIN_PATCHES",
]

#: Under ``share_plane="auto"``, scenes below this patch count stay on
#: the pickle transport: publishing a plane costs one segment round-trip
#: that a small scene (tiny arrays, cheap octree compile) cannot repay.
#: Its own literal, not the accelerator auto-threshold: that one moves
#: with the traversal kernel's speed, this one with segment setup cost.
PLANE_MIN_PATCHES = 192


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
    """EventBatch -> plain array tuple (the pickle wire format).

    Column order is :data:`repro.core.vectorized.EVENT_FIELDS` — the
    same layout the result blocks use, so the two transports carry
    identical bytes.
    """
    fields = events.export_fields()
    return tuple(fields[name] for name, _ in EVENT_FIELDS)


def _trace_shard(
    scene: Scene,
    fluorescence,
    batch_size: int,
    accel: str,
    seed: int,
    start: int,
    count: int,
) -> ShardResult:
    """Self-contained pool target: trace photons ``start .. start+count``.

    Builds a throwaway engine from the pickled *scene* — the legacy
    transport, kept for injected in-process pools (tests) and as the
    semantics reference for the persistent-pool path below.  Always
    returns an inline-payload :class:`ShardResult` (nothing forked, so
    there is no plane to write into).
    """
    engine = VectorEngine(
        scene, fluorescence=fluorescence, batch_size=batch_size, accel=accel
    )
    events, stats = engine.trace_range(seed, start, count)
    return pack_shard(events.sorted_canonical(), stats, None, -1)


#: Per-process engine of a :class:`PhotonPool` worker, built once by the
#: pool initializer (attached to the plane, or from the pickled scene).
_POOL_ENGINE: Optional[VectorEngine] = None


def _init_pool_worker(
    handle,
    scene: Optional[Scene],
    fluorescence,
    batch_size: int,
    accel: str,
    report_queue=None,
) -> None:
    """Pool initializer: construct this worker's engine exactly once.

    With a plane *handle* the engine's arrays are zero-copy views into
    the shared segment (*scene* is ``None`` — nothing big was pickled);
    otherwise the worker compiles its own arrays from the pickled scene.
    When *report_queue* is given, the worker reports ``(pid, transport)``
    exactly once after its engine is ready — the parent's startup
    barrier and per-worker transport census.
    """
    global _POOL_ENGINE
    if handle is not None:
        from .shmplane import attach

        _POOL_ENGINE = VectorEngine(
            arrays=attach(handle),
            fluorescence=fluorescence,
            batch_size=batch_size,
            accel=accel,
        )
    else:
        _POOL_ENGINE = VectorEngine(
            scene, fluorescence=fluorescence, batch_size=batch_size, accel=accel
        )
    if report_queue is not None:
        import os

        transport = "plane" if _POOL_ENGINE.arrays.scene is None else "pickle"
        report_queue.put((os.getpid(), transport))


def _trace_shard_pooled(
    seed: int, start: int, count: int, result_handle, slot: int
) -> ShardResult:
    """Pool target for persistent workers: trace on the initializer's engine.

    With a *result_handle* the canonical events land in result block
    *slot* and only the descriptor returns; without one they ride the
    pickle (the legacy return transport).
    """
    events, stats = _POOL_ENGINE.trace_range(seed, start, count)
    return pack_shard(events.sorted_canonical(), stats, result_handle, slot)


@dataclass
class _Section:
    """One worker's owned slice of the forest, shaped for the merger."""

    forest: BinForest


def _build_section(policy: SplitPolicy, arrays: tuple) -> _Section:
    """Pool target: replay one ownership section's events into a forest."""
    forest = BinForest(policy)
    apply_events(forest, EventBatch(*arrays))
    return _Section(forest)


def _build_section_pooled(
    policy: SplitPolicy,
    result_handle,
    counts: tuple,
    worker_id: int,
    workers: int,
) -> _Section:
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
    return _Section(forest)


def partition_patches(patch_ids: np.ndarray, workers: int) -> np.ndarray:
    """Round-robin patch -> worker ownership (stable for any worker count)."""
    return patch_ids % workers


def trace_events_parallel(
    pool, scene: Scene, config: SimulationConfig
) -> tuple[EventBatch, TraceStats]:
    """Phase 1 on an injected pool: ship the scene with every job.

    The legacy entry point kept for pool-shaped in-process executors;
    :class:`PhotonPool` runs the same phase against persistent workers
    without re-shipping the scene (and, with the result plane, without
    shipping the events back either).
    """
    jobs = [
        (scene, config.fluorescence, config.batch_size, config.accel,
         config.seed, start, count)
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
    """Phase 2: ownership-sharded forest build + distributed-style merge.

    The pickle-transport build, used by injected pools and as the
    fallback when any trace shard returned an inline payload;
    :meth:`PhotonPool.run` prefers the block-reading build
    (:func:`_build_section_pooled`) when the whole trace phase went
    through the result plane.
    """
    owner = partition_patches(events.patch, workers)
    jobs = []
    for w in range(workers):
        rows = np.nonzero(owner == w)[0]
        if rows.size == 0:
            continue
        jobs.append((policy, _event_columns(events.take(rows))))
    sections: Sequence[_Section] = pool.starmap(_build_section, jobs) if jobs else []
    merged = merge_rank_forests(sections, policy)
    return _reorder_first_tally(merged, events)


def resolve_share_plane(mode: str, scene: Scene) -> bool:
    """Decide whether a run publishes the shared-memory plane.

    ``"on"`` demands it (raising when the platform cannot), ``"off"``
    never uses it, and ``"auto"`` picks it exactly when the platform
    supports it and the scene clears :data:`PLANE_MIN_PATCHES`.
    """
    from .shmplane import plane_available

    if mode == "off":
        return False
    if mode == "on":
        if not plane_available():
            raise RuntimeError(
                "share_plane='on' but multiprocessing.shared_memory is "
                "unavailable on this platform; use 'off' or 'auto'"
            )
        return True
    if mode != "auto":
        raise ValueError(f"unknown share_plane mode {mode!r}")
    return plane_available() and len(scene.patches) >= PLANE_MIN_PATCHES


class PhotonPool:
    """A persistent worker pool with an optional shared-memory scene plane.

    Publishing, worker startup, and segment cleanup happen once per pool
    rather than once per run, so repeated :meth:`run` calls (parameter
    sweeps, benchmarks, services) pay only tracing time.  Always use the
    context manager (or call :meth:`close` in a ``finally``): it closes
    **and unlinks** the plane segment even when a worker raises, which is
    the no-leak contract the lifecycle tests enforce.

    Example::

        with PhotonPool(scene, config) as pool:
            result = pool.run()

    Args:
        scene: Scene the pool serves; one plane is published for it.
        config: Pool sizing (``workers``) and engine parameters
            (``fluorescence``, ``batch_size``, ``accel``) come from
            here, as does the default ``share_plane`` mode.
        share_plane: Optional override of ``config.share_plane``.
        result_plane: Optional override of ``config.result_plane`` (the
            outbound event transport; see
            :mod:`repro.parallel.resultplane`).
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
        share_plane: Optional[str] = None,
        *,
        result_plane: Optional[str] = None,
        arrays: Optional[SceneArrays] = None,
        plane_handle=None,
    ) -> None:
        self.scene = scene
        self.config = config
        self.share_plane = (
            share_plane if share_plane is not None else config.share_plane
        )
        self.result_plane_mode = (
            result_plane if result_plane is not None else config.result_plane
        )
        self.arrays = arrays
        self.plane_handle = plane_handle
        self.plane = None
        self._pool = None
        self._init_reports = None
        self._transports: Optional[list[str]] = None
        #: Transport actually chosen at :meth:`start` ("plane"/"pickle").
        self.transport = "pickle"
        #: The per-shard result blocks, allocated lazily by the first
        #: trace and recycled across warm requests (None until then, or
        #: when the result transport resolved to pickle).
        self.result_blocks: Optional[ResultPlane] = None
        self._use_result_plane = False
        #: The previous trace call's :class:`ShardResult` descriptors in
        #: job order, with inline payloads stripped after the gather
        #: (:meth:`run` reuses the slot/count fields for the build
        #: phase).  ``last_result_wire_bytes`` records what the full
        #: results — payloads included — cost to cross the process
        #: boundary; the transport benchmarks read it.
        self.last_shard_results: list[ShardResult] = []
        self.last_result_wire_bytes = 0
        #: Warm traces that recycled the existing result blocks instead
        #: of allocating a segment — the amortized serving tier's
        #: top-up ranges land here, so the counter is how benchmarks
        #: show repeated small ranges stay allocation-free.
        self.result_block_reuses = 0

    def start(self) -> "PhotonPool":
        """Publish the plane (if selected) and fork the workers."""
        if self._pool is not None:
            return self
        # Resolve the outbound transport up front so result_plane="on"
        # fails loudly at start, not at the first trace.
        self._use_result_plane = resolve_result_plane(self.result_plane_mode)
        handle = None
        scene_arg: Optional[Scene] = self.scene
        if self.plane_handle is not None:
            # Externally owned plane (session / registry): attach only.
            handle = self.plane_handle
            scene_arg = None
            self.transport = "plane"
        elif resolve_share_plane(self.share_plane, self.scene):
            from . import shmplane

            try:
                payload = (
                    self.arrays if self.arrays is not None
                    else SceneArrays(self.scene)
                )
                self.plane = shmplane.publish(payload)
            except OSError:
                if self.share_plane == "on":
                    raise
                self.plane = None  # auto: fall back to pickling
            if self.plane is not None:
                handle = self.plane.handle
                scene_arg = None
                self.transport = "plane"
        import multiprocessing as mp

        config = self.config
        ctx = mp.get_context()
        try:
            self._init_reports = ctx.Queue()
            self._pool = ctx.Pool(
                processes=config.workers,
                initializer=_init_pool_worker,
                initargs=(handle, scene_arg, config.fluorescence,
                          config.batch_size, config.accel, self._init_reports),
            )
        except BaseException:
            # The no-leak contract covers a failed fork too: a published
            # segment must not outlive the pool that never started.
            if self.plane is not None:
                self.plane.close()
                self.plane.unlink()
                self.plane = None
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
        if (
            self.result_blocks is not None
            and results
            and all(r.slot >= 0 for r in results)
        ):
            # Zero-pickle build: workers re-read their owned rows from
            # the shard blocks still holding this trace's events.
            forest = self._build_forest_from_blocks(
                events, results, config.policy, workers
            )
        else:
            forest = build_forest_parallel(
                self._pool, events, config.policy, workers
            )
        return _finish_result(forest, events, stats, config, self.scene.name)

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
        worker re-reads and filters the blocks itself
        (:func:`_build_section_pooled`).  Empty sections are skipped
        parent-side, exactly like the pickle build.
        """
        counts = [0] * self.result_blocks.blocks
        for r in results:
            counts[r.slot] = r.count
        present = np.unique(events.patch % workers)
        jobs = [
            (policy, self.result_blocks.handle, tuple(counts), int(w), workers)
            for w in present
        ]
        sections: Sequence[_Section] = (
            self._pool.starmap(_build_section_pooled, jobs) if jobs else []
        )
        merged = merge_rank_forests(sections, policy)
        return _reorder_first_tally(merged, events)

    def _ensure_result_blocks(self, max_share: int) -> Optional[ResultPlane]:
        """The result blocks for a trace whose largest shard is *max_share*.

        Allocates on first use, recycles when the existing blocks fit,
        regrows (unlinking the old segment first) when the budget grew.
        An allocation failure under ``"auto"`` warns loudly and drops to
        the pickle transport for the pool's remaining life; ``"on"``
        propagates the error.
        """
        if not self._use_result_plane:
            return None
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
        try:
            self.result_blocks = ResultPlane(blocks, capacity)
        except OSError as exc:
            if self.result_plane_mode == "on":
                raise
            import warnings

            warnings.warn(
                f"could not allocate shared-memory result blocks ({exc}); "
                "falling back to the pickle return transport for this pool",
                resultplane.ResultPlaneWarning,
                stacklevel=3,
            )
            self._use_result_plane = False
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

        With the result plane live, each yield's events come back as
        block descriptors (streamed serving stays free of per-batch
        event pickling); the blocks are recycled by the next call, after
        the canonical merge has copied the events out.
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
        handle = blocks.handle if blocks is not None else None
        jobs = [
            (seed, start + offset, share, handle, slot)
            for slot, (offset, share) in enumerate(shards)
        ]
        results = self._pool.starmap(_trace_shard_pooled, jobs)
        gathered = gather_shards(results, blocks)
        self.last_result_wire_bytes = resultplane.wire_bytes(results)
        # The gather copied every event out; drop inline payloads so a
        # pickle-path request cannot pin O(events) arrays in the parent
        # until the next trace (descriptors alone drive the build phase).
        for r in results:
            r.payload = None
        self.last_shard_results = results
        return gathered

    def worker_transports(self) -> list[str]:
        """Every worker's transport, reported once from its initializer.

        Blocks until all ``workers`` initializers have finished (each
        reports exactly once), so this doubles as the startup barrier
        the benchmarks time against.  The census is cached — the report
        queue only ever holds one entry per worker.
        """
        if self._pool is None:
            return []
        if self._transports is None:
            reports = [
                self._init_reports.get(timeout=60.0)
                for _ in range(self.config.workers)
            ]
            assert len({pid for pid, _ in reports}) == len(reports)
            self._transports = [transport for _, transport in sorted(reports)]
        return self._transports

    def close(self, terminate: bool = False) -> None:
        """Tear down workers, then close and unlink both planes (idempotent).

        The result blocks release with the scene plane — also on the
        worker-exception path (the context manager routes here), which
        is the crash half of the no-leak contract the lifecycle tests
        cover for the return transport too.
        """
        if self._pool is not None:
            if terminate:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None
        if self._init_reports is not None:
            self._init_reports.close()
            self._init_reports = None
            self._transports = None
        if self.plane is not None:
            self.plane.close()
            self.plane.unlink()
            self.plane = None
        self.last_shard_results = []
        if self.result_blocks is not None:
            self.result_blocks.close()
            self.result_blocks.unlink()
            self.result_blocks = None
        # A restart after close() re-decides the transports from scratch
        # (an "auto" re-publish may fall back where the first one won).
        self.transport = "pickle"
        self._use_result_plane = False

    def __enter__(self) -> "PhotonPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # A raising worker leaves queued tasks behind; terminate instead
        # of draining them, but release the segment either way.
        self.close(terminate=exc_type is not None)


def book_emissions(forest: BinForest, events: EventBatch, n_photons: int) -> None:
    """Set a merged forest's emission counters from the event record.

    The one home of post-merge emission accounting, shared by every
    sharded-reduction driver (the process pool and the shared-memory
    vector path), so the booking cannot drift between them.
    """
    forest.photons_emitted = n_photons
    counts = events.emission_band_counts()
    for b in range(NUM_BANDS):
        forest.band_emitted[b] = counts[b]


def _finish_result(
    forest: BinForest,
    events: EventBatch,
    stats: TraceStats,
    config: SimulationConfig,
    scene_name: str,
) -> SimulationResult:
    """Book emissions on the merged forest and wrap the result."""
    book_emissions(forest, events, config.n_photons)
    return SimulationResult(forest, stats, config, scene_name)


def run_procpool(
    scene: Scene, config: SimulationConfig, pool=None
) -> SimulationResult:
    """Run *config* on a process pool; result matches the serial engines.

    Args:
        scene: Scene to trace (shared-memory plane or pickle, per
            ``config.share_plane``).
        config: Simulation parameters; ``config.workers`` sizes the pool.
        pool: Optional pre-built pool-like object exposing ``starmap``
            (used by tests to inject an in-process executor; always the
            pickle transport, since nothing forked).
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
