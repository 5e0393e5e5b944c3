"""Process-parallel vector backend: true multi-core photon tracing.

The paper's shared-memory variant (:mod:`repro.paper.shared`) runs
real threads, but the GIL serialises Python bytecode, so it demonstrates
the locking protocol rather than speed.  This module is the serving
path's multi-core backend: it shards the photon index range across a
process pool of :class:`~repro.core.vectorized.VectorEngine`
workers, and the parent builds the answer from the shards as they land:

* **Workers trace** — each worker traces a contiguous shard of photon
  indices (per-photon counter-based substreams make shards independent)
  and writes its tally events into a preallocated shared-memory result
  block, returning only a tiny descriptor
  (:class:`repro.parallel.resultplane.ShardResult`).

* **The parent tallies** — it waits on the shards in shard order and
  replays each one into the forest
  (:func:`repro.core.vectorized.tally_block`) straight from a zero-copy
  view of its block, so shard *k* is tallied while later shards are
  still tracing.  The tally is in-process CPU work and runs under
  :data:`repro.api.gate.KERNEL_GATE`; the waits on the workers do not.

* **Prefixes as the engine reports them** — :meth:`PhotonPool.grow`
  yields each report point (a stream's chunk boundaries) once the forest
  holds exactly the photons below it, from one shard set, or for a long
  stream from consecutive sets of at least a wave per worker, so a
  caller can stop it within one set; :meth:`PhotonPool.run` is its
  drain, always one set.

One transport each way
----------------------
:class:`PhotonPool` owns a persistent pool whose initializer attaches
each worker **once**, zero-copy, to the shared-memory scene plane
(:mod:`repro.parallel.shmplane`) its :class:`~repro.api.SceneProgram`
published — no per-worker scene pickle, no per-worker octree
re-compilation, one copy of the acceleration structure in RAM no matter
the worker count or the scene size.  The fluorescence spec rides in
every shard's job arguments, and a worker builds one engine per spec
over its attached arrays and keeps it, so one pool serves every
request on the program.  Events come back through per-shard result blocks
(:mod:`repro.parallel.resultplane`), which the pool allocates lazily at
the first trace, recycles verbatim across warm requests, regrows (old
segment unlinked first) when a bigger budget arrives, and unlinks at
close — the same no-leak contract the scene plane honours.  A request's
events therefore cross the process boundary as O(workers) descriptors.

There is no second transport.  A segment that cannot be created
(``OSError`` from a full ``/dev/shm``, ``RuntimeError`` where
``multiprocessing.shared_memory`` does not exist) propagates to the
caller with no segment of the failed step left behind — a failed
publish forks nothing, a failed regrow has already unlinked the old
blocks — and the pool stays serviceable: the next trace allocates
afresh.  A shard cannot outrun its block: each is sized to the bounce
cap (:func:`repro.parallel.resultplane.block_capacity`), which costs
address space only, since a segment's unwritten pages are never
allocated.

Workers are a ``ProcessPoolExecutor`` (:class:`_WorkerPool`).  A
worker that dies mid-request fails the request with
``BrokenProcessPool`` instead of leaving it waiting for a result that
never comes; the pool closes itself and its result blocks, and the
next request starts a fresh one.  A request that leaves early for any
other reason — a shard or the parent's own tally raised — cancels its
queued shards and waits out the running ones first, so no straggler
writes into a block the next request reads.

Workers exit with their parent: a worker whose parent died (a SIGKILLed
service) is re-parented, sees it, and exits, so the parent's resource
tracker unlinks what the parent left in ``/dev/shm``.

Workers keep their heap between shards.  A shard's wave temporaries are
megabytes, and glibc's dynamic thresholds hand the heap top back to the
OS after each shard, so the next one faulted it in again (~1,100 minor
faults per 1,500-photon ``computer-lab`` shard).  The initializer fixes
both ``mallopt`` thresholds in the processes the pool owns
(:func:`_retain_worker_heap`); a warm shard now takes a few dozen
faults (:attr:`ShardResult.faults`), and a worker keeps up to the
64 MiB trim threshold free at its heap top.  The parent and in-process sessions
keep the embedding application's allocator.

Determinism contract
--------------------
The forest is **identical node-for-node** to a single-process vector
run (and to the scalar substream oracle) for any worker count or shard
landing order — the property the determinism suite locks down.  Three
invariants carry the proof:

* **Substream independence** — photon *i* draws only from its private
  counter-based substream, so shard boundaries cannot change any draw.
* **Canonical event order** — shards cover contiguous ascending index
  ranges and are tallied in shard order, whatever order they land in,
  so the parent replays the exact serial tally sequence.
* **Chunking invariance** — :func:`~repro.core.vectorized.tally_block`
  builds the same forest however a photon range is cut into blocks
  (the stream-parity contract), trees included in first-tally order.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager
from typing import Iterator, Optional

import numpy as np

from ..api.gate import KERNEL_GATE
from ..api.program import SceneProgram
from ..core.bintree import BinForest
from ..core.simulator import SimulationConfig, SimulationResult, TraceStats
from ..core import vectorized
from ..core.vectorized import (
    EventBatch,
    SceneArrays,
    VectorEngine,
    checked_range,
    grow_to_end,
    next_report,
    tally_block,
)
from . import resultplane, shmplane
from .resultplane import (
    ResultPlane,
    ShardResult,
    block_capacity,
    gather_shards,
    pack_shard,
    shard_events,
)

try:
    import resource
except ImportError:  # not on every platform; shard fault counts stay 0
    resource = None

__all__ = [
    "PhotonPool",
]


def _shard_starts(n_photons: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, count)`` photon shards, one per worker.

    The first ``n_photons % workers`` workers take one extra photon.
    Every caller that needs shard offsets uses this single prefix pass.
    """
    base, extra = divmod(n_photons, workers)
    starts = []
    offset = 0
    for w in range(workers):
        share = base + (1 if w < extra else 0)
        starts.append((offset, share))
        offset += share
    return starts


#: A :class:`PhotonPool` worker's attached scene plane, set once by the
#: pool initializer.
_POOL_ARRAYS: Optional[SceneArrays] = None
#: The worker's engines over :data:`_POOL_ARRAYS`, one per fluorescence
#: spec, each built by the first shard that asks for it.
_POOL_ENGINES: dict = {}

#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Allocations below this come from the heap, not a fresh ``mmap``:
#: glibc's own 64-bit ceiling for its sliding threshold.
_WORKER_MMAP_THRESHOLD = 32 << 20
#: Free memory the heap top keeps before it is returned to the OS —
#: twice the mmap threshold, glibc's own rule for the pair.
_WORKER_TRIM_THRESHOLD = 2 * _WORKER_MMAP_THRESHOLD


def _retain_worker_heap(load_libc=ctypes.CDLL) -> None:
    """Keep this worker's heap mapped between shards (glibc only).

    A shard's wave temporaries are megabytes; with glibc's dynamic
    thresholds the heap top goes back to the OS after every shard and
    the next shard faults it in again.  Both thresholds are set: setting
    either turns the sliding rule off and leaves the other at its small
    default.  The trim threshold bounds the free heap top a worker keeps.
    Without ``mallopt`` (another libc, a loader that fails) this does
    nothing.
    """
    try:
        mallopt = load_libc("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.2


def _exit_with_parent() -> None:
    """Exit this worker once the process that started it is gone.

    A daemon thread polls ``os.getppid()`` and calls ``os._exit`` when
    it changes: the worker was re-parented, so no shard will ever come
    again, and while it lives the parent's resource tracker cannot
    unlink the segments the dead parent left.  Not
    ``PR_SET_PDEATHSIG``: that signal fires when the *thread* that
    forked the worker exits, and a pool starts on whichever request
    thread first needs it.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _init_pool_worker(handle) -> None:
    """Pool initializer: attach this worker to the scene plane once.

    The arrays are zero-copy views into the shared segment behind
    *handle* — nothing big was pickled, nothing is compiled here.
    First the worker's allocator is set to keep its heap between shards
    (:func:`_retain_worker_heap`): the process is the pool's own; and it
    starts watching its parent (:func:`_exit_with_parent`).
    """
    global _POOL_ARRAYS
    _retain_worker_heap()
    _exit_with_parent()
    _POOL_ARRAYS = shmplane.attach(handle)


def _pool_engine(fluorescence) -> VectorEngine:
    """This worker's warm engine for *fluorescence*, built on first use."""
    engine = _POOL_ENGINES.get(fluorescence)
    if engine is None:
        engine = _POOL_ENGINES[fluorescence] = VectorEngine(
            arrays=_POOL_ARRAYS, fluorescence=fluorescence
        )
    return engine


def _trace_shard_pooled(
    fluorescence, seed: int, start: int, count: int, result_handle, slot: int
) -> ShardResult:
    """Pool target for persistent workers: trace on the worker's engine
    for *fluorescence*.

    The canonical events land in result block *slot* and only the
    descriptor returns, with the minor page faults the trace and the
    pack took.
    """
    before = _minor_faults()
    events, stats = _pool_engine(fluorescence).trace_range(seed, start, count)
    result = pack_shard(events.sorted_canonical(), stats, result_handle, slot)
    result.faults = _minor_faults() - before
    return result


def _minor_faults() -> int:
    """This process's minor page faults so far (0 without ``resource``)."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _WorkerPool:
    """The worker processes behind :class:`PhotonPool`.

    A ``ProcessPoolExecutor`` behind an in-order ``starmap`` and an
    ``apply``.  Not a ``multiprocessing.Pool``, which quietly replaces a
    worker that dies mid-task and never delivers the dead task's result,
    so the request waits forever; the executor instead fails every
    pending task with ``BrokenProcessPool``.
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

    def starmap(self, fn, jobs) -> Iterator:
        """Run every job at once; yield the results in job order, each
        as soon as it lands.

        The jobs are submitted at the first ``next()``.  However the
        iteration ends early — a job raised, or the caller closed the
        iterator after raising between results — the queued jobs are
        cancelled and the running ones waited out before the error goes
        on, so no job outlives the call that submitted it.
        """
        futures = [self._executor.submit(fn, *job) for job in jobs]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()
            wait(futures)

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
    """A persistent worker pool over its program's shared-memory plane.

    Worker startup and the plane reference are taken once per pool
    rather than once per run, so repeated :meth:`run` calls (parameter
    sweeps, benchmarks, services) pay only tracing time.  Always use the
    context manager (or call :meth:`close` in a ``finally``): it stops
    the workers, unlinks the result blocks and drops the plane
    reference even when a worker raises, which is the no-leak contract
    the lifecycle tests enforce.

    Example::

        with PhotonPool(SceneProgram.compile(scene), config) as pool:
            result = pool.run()

    Args:
        program: The :class:`~repro.api.SceneProgram` the pool serves.
            :meth:`start` acquires its plane
            (:meth:`~repro.api.SceneProgram.acquire_plane`, which
            publishes on the program's first acquire) and :meth:`close`
            releases it.
        config: Pool sizing (``workers``); also the budget :meth:`run`
            traces by default.
    """

    def __init__(self, program: SceneProgram, config: SimulationConfig) -> None:
        self.program = program
        self.config = config
        #: The program's plane while this pool holds a reference on it.
        self._scene_handle = None
        self._pool = None
        #: The per-shard result blocks, allocated lazily by the first
        #: trace and recycled across warm requests (None until then).
        self.result_blocks: Optional[ResultPlane] = None
        #: The previous trace call's :class:`ShardResult` descriptors in
        #: shard order.  Each carries ``faults``, the minor page faults
        #: its worker took over the shard's trace and pack — a few dozen
        #: on a warm glibc worker.  ``last_result_wire_bytes`` records
        #: what they cost to cross the process boundary; the benchmark
        #: reads both.
        self.last_shard_results: list[ShardResult] = []
        self.last_result_wire_bytes = 0
        #: Warm traces that recycled the existing result blocks instead
        #: of allocating a segment — the amortized serving tier's
        #: top-up ranges land here, so the counter is how benchmarks
        #: show repeated small ranges stay allocation-free.
        self.result_block_reuses = 0

    def start(self) -> "PhotonPool":
        """Acquire the program's plane and fork the workers.

        A plane that cannot be published raises (``OSError`` /
        ``RuntimeError``, see :func:`repro.parallel.shmplane.publish`)
        with no reference taken and no worker forked.
        """
        if self._pool is not None:
            return self
        self._scene_handle = self.program.acquire_plane()
        try:
            self._pool = _WorkerPool(
                self.config.workers, _init_pool_worker, (self._scene_handle,)
            )
        except BaseException:
            # The no-leak contract covers a failed fork too: the plane
            # reference must not outlive the pool that never started.
            self.close()
            raise
        return self

    def grow(
        self, config: SimulationConfig, forest: BinForest, stats: TraceStats,
        start: int, step: int,
    ) -> Iterator[int]:
        """Add photons ``start .. config.n_photons`` to *forest*, which
        holds photons ``0 .. start``, with the contract of
        :meth:`repro.core.vectorized.VectorEngine.grow`.

        The range is traced in shard sets, one shard per worker.  A set
        ends at the first report point at least one wave per worker
        (``workers * PHOTONS_IN_FLIGHT`` photons) past its start, or at
        the range's end when less than that would be left: a one-shot or
        a short stream is one set, and a long stream reaches a report
        point — where a caller can stop it — every few waves, with result
        blocks sized to a set, not to the budget.  Each shard is tallied
        as it lands, in shard order, under the kernel gate; a report
        point inside a shard cuts it into blocks, zero-copy slices of its
        canonically sorted events.  The waits on the workers and the
        yields hold no gate.  *stats* counts every landed shard.  Closing
        the generator early drains the running set's shards
        (:meth:`_WorkerPool.starmap`).
        """
        start, count = checked_range(start, config.n_photons - start)
        end = start + count
        if not count:
            yield end
            return
        least = self.config.workers * vectorized.PHOTONS_IN_FLIGHT
        tallied = start
        while tallied < end:
            set_end = next_report(tallied + least - 1, step, end)
            if end - set_end < least:
                set_end = end
            with self._shards(
                config.fluorescence, config.seed, tallied, set_end - tallied
            ) as landed:
                for result in landed:
                    stats.merge(result.stats)
                    events = shard_events(result, self.result_blocks)
                    shard_end = tallied + result.stats.photons
                    while tallied < shard_end:
                        stop = next_report(tallied, step, end)
                        cut = min(stop, shard_end)
                        lo, hi = np.searchsorted(events.gidx, (tallied, cut))
                        with KERNEL_GATE:
                            tally_block(
                                forest, events.take(slice(lo, hi)),
                                cut - tallied,
                            )
                        tallied = cut
                        if cut == stop:
                            yield stop

    def run(
        self,
        config: Optional[SimulationConfig] = None,
        forest: Optional[BinForest] = None,
        start: int = 0,
    ) -> SimulationResult:
        """Add photons ``start .. config.n_photons`` to *forest*, which
        holds photons ``0 .. start`` (a fresh forest by default), exactly
        as :meth:`repro.core.vectorized.VectorEngine.run` does;
        ``result.stats`` counts only this call's photons.

        *config* defaults to the pool's own; passing a different one
        (other budget/seed/policy/fluorescence) reuses the warm workers.
        The shard count always comes from the pool's construction config
        — the pool has exactly that many workers.  (Answers do not
        depend on it; that is the determinism contract.)

        The drain of :meth:`grow` reporting at the range's end only
        (:func:`~repro.core.vectorized.grow_to_end`): one shard set, each
        shard tallied whole as it lands.
        """
        config = config if config is not None else self.config
        return grow_to_end(self, config, forest, start, self.program.scene.name)

    @contextmanager
    def _closing_if_broken(self):
        """Close this pool when a worker died under the enclosed tasks.

        The executor fails every pending task with ``BrokenProcessPool``,
        which propagates to the caller; the workers, the result blocks
        and the plane reference go with it (the program unlinks the
        plane if that was its last reference), and the next :meth:`run`
        or :meth:`trace_range` starts a fresh pool.
        """
        try:
            yield
        except BrokenProcessPool:
            self.close(terminate=True)
            raise

    def _ensure_result_blocks(self, max_share: int) -> ResultPlane:
        """The result blocks for a trace whose largest shard is *max_share*.

        Allocates on first use, recycles when the existing blocks fit,
        regrows (unlinking the old segment first) when the budget grew.
        An allocation failure propagates with ``result_blocks`` left
        ``None`` and no segment behind, so the next trace simply
        allocates afresh.
        """
        capacity = block_capacity(max_share)
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

    @contextmanager
    def _shards(self, fluorescence, seed: int, start: int, count: int) -> Iterator:
        """Trace photons ``start .. start+count`` under *fluorescence* on
        the warm workers.

        Yields an iterator over the shards' :class:`ShardResult`
        descriptors in shard order, each as soon as its shard lands —
        the one trace path behind :meth:`grow` (tally each shard as it
        lands) and :meth:`trace_range` (concatenate them).  A descriptor
        is read with :func:`repro.parallel.resultplane.shard_events`
        against ``self.result_blocks`` while the block is still open.
        Leaving the block early drains this call's shards (see
        :meth:`_WorkerPool.starmap`); a dead worker closes the pool.
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
            (fluorescence, seed, start + offset, share, blocks.handle, slot)
            for slot, (offset, share) in enumerate(shards)
        ]
        results = self.last_shard_results = []
        self.last_result_wire_bytes = 0

        def record(landed):
            for r in landed:
                self.last_result_wire_bytes += resultplane.wire_bytes([r])
                results.append(r)
                yield r

        with self._closing_if_broken(), closing(
            self._pool.starmap(_trace_shard_pooled, jobs)
        ) as landed:
            yield record(landed)

    def trace_range(
        self, seed: int, start: int, count: int, fluorescence=None
    ) -> tuple[EventBatch, TraceStats]:
        """Trace photons ``start .. start+count`` under *fluorescence*
        (``None``: none) on the warm workers, returning globally
        canonical events plus counters.

        The pool's events API, which serving does not use (a forest
        grows through :meth:`grow`, tallying each shard as it lands):
        the shards are concatenated
        (:func:`repro.parallel.resultplane.gather_shards`), canonical
        because they are contiguous and ascending, so tallying the block
        builds the forest :meth:`run` builds.  A negative *start* or
        *count* raises ``ValueError`` before any worker starts.
        """
        start, count = checked_range(start, count)
        with self._shards(fluorescence, seed, start, count) as landed:
            return gather_shards(list(landed), self.result_blocks)

    def close(self, terminate: bool = False) -> None:
        """Tear down workers, then release the scene plane and unlink the
        result blocks (idempotent).

        Both go on the worker-exception path too (the context manager
        routes here), which is the crash half of the no-leak contract
        the lifecycle tests cover for both transports.
        """
        if self._pool is not None:
            self._pool.shutdown(terminate)
            self._pool = None
        if self._scene_handle is not None:
            self._scene_handle = None
            self.program.release_plane()
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

