"""Zero-copy shared-memory result plane: the outbound event transport.

The scene plane (:mod:`repro.parallel.shmplane`) makes the *inbound*
transport of the process pool zero-copy — a kilobyte handle crosses the
boundary, never a scene pickle.  This module is the *outbound* half and
the pool's only result transport: pickling every worker's full
:class:`EventBatch` (eight 8-byte columns per tally event) back to the
parent would scale return bytes with the **photon budget**; result
blocks scale them with the worker count instead:

* The parent preallocates one segment holding **per-shard result
  blocks** (:class:`ResultPlane`), sized from the photon budget times a
  measured events-per-photon headroom factor
  (:data:`EVENTS_PER_PHOTON_HEADROOM`).
* Each trace job writes its canonically sorted events straight into its
  block (:func:`pack_shard` — the columns of
  :data:`repro.core.vectorized.EVENT_FIELDS` via
  :meth:`EventBatch.export_fields`) and returns a tiny
  :class:`ShardResult` descriptor: ``(slot, count, stats)``, a few
  hundred bytes regardless of budget.
* The parent reads each shard through a **zero-copy view** over the
  same bytes (:func:`shard_events` / :meth:`ResultPlane.view`) and
  tallies it in place as it lands — a whole budget, a top-up and a
  stream chunk alike; only a caller that wants the events themselves
  concatenates the shards (:func:`gather_shards`).  The whole request
  crosses the process boundary in O(workers) descriptors.

Blocks are keyed by **job slot**, not worker identity: the executor
may hand two shards to one process, and slot-addressed blocks make that
harmless.  Parent and workers never write the same bytes — each job owns
its slot exclusively, the parent reads a slot only after its job has
returned, and a call that leaves early waits out its jobs first, so
none of them writes into a slot the next call reads.

Overflow and failure contract
-----------------------------
Block capacity is an estimate, and correctness never depends on it.
When a shard's events exceed its block (a pathological mirror scene
outrunning the headroom factor) the worker ships that shard's columns
inline in its :class:`ShardResult` instead and flags ``overflow``; the
parent raises a loud :class:`ResultPlaneWarning` while returning the
exact same bytes.  A block segment that cannot be *created* is
different: :class:`ResultPlane` lets the ``OSError`` (full ``/dev/shm``)
or ``RuntimeError`` (no ``shared_memory``) propagate — there is no
second transport to degrade to.  The pool's regrow unlinks the old
segment first, so the failure leaves nothing behind and the next
request allocates afresh.

Lifecycle contract
------------------
The parent owns the segment (:class:`ResultPlane` is a
:class:`~repro.parallel.shmplane.SegmentOwner`): blocks are recycled
across warm requests, regrown (old segment unlinked first) when a
bigger budget arrives, and unlinked at pool close even when a worker
raises mid-result.  Worker-side attachments are cached one segment at a
time (:func:`_attach_blocks`) — replacing a regrown segment closes the
stale mapping.  Segment names carry the shared plane prefix, so
:func:`repro.parallel.shmplane.leaked_segments` covers result blocks
too, after a real ``repro serve``'s SIGTERM as well
(``tests/test_cli.py::TestServeCommand::test_boot_serve_sigterm``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..core.simulator import TraceStats
from ..core.vectorized import EVENT_FIELDS, EventBatch
from .shmplane import SegmentOwner, allocate_segment, attach_segment

__all__ = [
    "ADAPTIVE_EVENTS_HEADROOM",
    "EVENTS_PER_PHOTON_HEADROOM",
    "MIN_BLOCK_EVENTS",
    "ResultBlockHandle",
    "ResultPlane",
    "ResultPlaneWarning",
    "ShardResult",
    "block_capacity",
    "detach_worker_blocks",
    "gather_shards",
    "pack_shard",
    "shard_events",
    "wire_bytes",
]

#: Block capacity per shard photon.  Measured on the three test scenes
#: (50k-photon runs): 1.9 events/photon on the Cornell box, 1.6 on the
#: harpsichord room, 2.3 on the computer lab, with no single photon
#: above 16.  8x covers ~3.5x over the worst measured mean; a scene that
#: still overflows (deep mirror boxes) takes the loud inline-payload
#: path and remains byte-correct.
EVENTS_PER_PHOTON_HEADROOM = 8.0

#: Floor on block capacity so tiny streaming chunks don't allocate
#: degenerate segments (and so per-block rounding never dominates).
MIN_BLOCK_EVENTS = 1024


class ResultPlaneWarning(UserWarning):
    """A result-plane degradation the run survived (block overflow).

    Loud by contract: answers stay byte-identical, but the request paid
    O(events) pickle bytes the plane existed to avoid — worth surfacing
    rather than silently eating.
    """


#: Safety multiplier over a scene's *known* events-per-photon (the
#: ``Scene.events_per_photon_hint`` persisted by the scene loader and
#: stamped by the procedural generator).  The hint is a mean; individual
#: shards fluctuate around it, so 2x covers shard-level variance while
#: still sizing blocks from the scene instead of the global worst case —
#: on the generated corpus (hint ~2.5-3) that is roughly a 30% smaller
#: segment than the blanket 8x, and the gap widens on darker scenes.
ADAPTIVE_EVENTS_HEADROOM = 2.0


def block_capacity(
    photons_per_shard: int, events_per_photon: Optional[float] = None
) -> int:
    """Events a shard's block holds for a *photons_per_shard* budget.

    With *events_per_photon* (a scene's measured or estimated mean tally
    events per emitted photon), capacity is
    ``photons * events_per_photon * ADAPTIVE_EVENTS_HEADROOM``; without
    it, the blanket :data:`EVENTS_PER_PHOTON_HEADROOM` worst case.
    Module globals are read at call time so tests can monkeypatch the
    factors to force the overflow path.
    """
    if events_per_photon is not None:
        if not events_per_photon > 0:
            raise ValueError(
                f"events_per_photon must be positive, got {events_per_photon}"
            )
        need = math.ceil(
            photons_per_shard * events_per_photon * ADAPTIVE_EVENTS_HEADROOM
        )
    else:
        need = math.ceil(photons_per_shard * EVENTS_PER_PHOTON_HEADROOM)
    return max(need, MIN_BLOCK_EVENTS)


@dataclass(frozen=True)
class ResultBlockHandle:
    """Everything a worker needs to write a result block.

    Pickles in a few hundred bytes regardless of budget: the payload
    lives in the named segment.  ``column_offsets`` places each
    :data:`~repro.core.vectorized.EVENT_FIELDS` column *within* a block;
    block *i* starts at ``i * block_stride``.

    Attributes:
        segment: Shared-memory segment name.
        capacity: Events each block can hold.
        blocks: Number of blocks (one per trace job / shard).
        column_offsets: ``(name, dtype_str, offset_in_block)`` per column.
        block_stride: Bytes from one block's start to the next.
    """

    segment: str
    capacity: int
    blocks: int
    column_offsets: tuple[tuple[str, str, int], ...]
    block_stride: int


def _block_layout(capacity: int) -> tuple[tuple[tuple[str, str, int], ...], int]:
    """Column offsets within one block plus the aligned block stride."""
    from .shmplane import _aligned

    offsets = []
    off = 0
    for name, dt in EVENT_FIELDS:
        off = _aligned(off)
        offsets.append((name, dt, off))
        off += capacity * np.dtype(dt).itemsize
    return tuple(offsets), _aligned(off)


def _slot_views(shm, handle: "ResultBlockHandle") -> list[dict]:
    """Per-slot column views over *shm* in *handle*'s layout.

    The single reading/writing lens on a result segment, shared by the
    owner (:class:`ResultPlane`) and the worker attach path so the two
    sides can never disagree about where a column lives.
    """
    return [
        {
            name: np.ndarray(
                handle.capacity, dtype=np.dtype(dt), buffer=shm.buf,
                offset=slot * handle.block_stride + off,
            )
            for name, dt, off in handle.column_offsets
        }
        for slot in range(handle.blocks)
    ]


class ResultPlane(SegmentOwner):
    """Parent-side owner of the per-shard result blocks.

    One segment holds every block, so one unlink cleans the whole
    return path.  The parent keeps full-capacity views per block and
    serves length-limited zero-copy :class:`EventBatch` windows through
    :meth:`view`; blocks are recycled verbatim across warm requests
    (the warm-session contract extends to them — pinned by
    ``tests/parallel/test_resultplane.py``).
    """

    def __init__(self, blocks: int, capacity: int) -> None:
        column_offsets, stride = _block_layout(capacity)
        shm = allocate_segment(stride * blocks, tag="result-")
        super().__init__(shm)
        self.handle = ResultBlockHandle(
            segment=shm.name,
            capacity=capacity,
            blocks=blocks,
            column_offsets=column_offsets,
            block_stride=stride,
        )
        self._views = _slot_views(shm, self.handle)

    @property
    def capacity(self) -> int:
        return self.handle.capacity

    @property
    def blocks(self) -> int:
        return self.handle.blocks

    @property
    def nbytes(self) -> int:
        return self.handle.block_stride * self.handle.blocks

    def fits(self, blocks: int, capacity: int) -> bool:
        """Whether the existing blocks can serve a request of this shape."""
        return blocks <= self.blocks and capacity <= self.capacity

    def view(self, slot: int, count: int) -> EventBatch:
        """Zero-copy :class:`EventBatch` over block *slot*'s first *count* rows.

        Valid until the plane is closed or the slot is recycled by the
        next trace call: the pool's tally reads it in place, and a
        caller that keeps events copies them once, at the concat-merge.
        """
        cols = self._views[slot]
        return EventBatch.from_fields(
            {name: cols[name][:count] for name, _ in EVENT_FIELDS}
        )

    def close(self) -> None:
        # Views into the buffer must die before SharedMemory.close() —
        # an exported pointer makes close() raise BufferError.
        self._views = []
        super().close()


@dataclass
class ShardResult:
    """What one trace job sends back: a descriptor, not the events.

    ``slot >= 0`` means the events sit in result block *slot* (this
    object is then a few hundred pickled bytes).  ``slot == -1`` is the
    inline path: *payload* carries the raw column arrays of
    :data:`~repro.core.vectorized.EVENT_FIELDS`, because the shard
    overflowed its block (*overflow* set — the parent warns loudly).
    *faults* is the minor page faults the worker took tracing and
    packing the shard (0 where nothing measured them).
    """

    slot: int
    count: int
    stats: TraceStats
    payload: Optional[tuple] = None
    overflow: bool = field(default=False)
    faults: int = 0


#: This worker's attachment to the (single) live result segment:
#: ``(segment_name, SharedMemory, per-slot column views)``.  One slot —
#: a pool worker serves exactly one pool, and the pool has at most one
#: live result segment; attaching a regrown segment closes the stale
#: mapping (unlike the scene plane, result segments are recycled, so a
#: grow-only cache would pin dead segments in RAM).
_WORKER_BLOCKS: Optional[tuple[str, object, list]] = None


def _attach_blocks(handle: ResultBlockHandle) -> list:
    """Worker-side per-slot column views of *handle*'s segment (cached)."""
    global _WORKER_BLOCKS
    if _WORKER_BLOCKS is not None and _WORKER_BLOCKS[0] == handle.segment:
        return _WORKER_BLOCKS[2]
    if _WORKER_BLOCKS is not None:
        _WORKER_BLOCKS[1].close()  # type: ignore[attr-defined]
    shm = attach_segment(handle.segment)  # the parent owns the name
    views = _slot_views(shm, handle)
    _WORKER_BLOCKS = (handle.segment, shm, views)
    return views


def detach_worker_blocks() -> None:
    """Drop this process's cached result attachment (tests)."""
    global _WORKER_BLOCKS
    if _WORKER_BLOCKS is not None:
        _WORKER_BLOCKS[1].close()  # type: ignore[attr-defined]
        _WORKER_BLOCKS = None


def pack_shard(
    events: EventBatch,
    stats: TraceStats,
    handle: ResultBlockHandle,
    slot: int,
) -> ShardResult:
    """Ship one shard's events: into result block *slot*, or inline.

    The single worker-side exit point of the trace phase.  With room in
    the block, the columns are copied into shared memory and only the
    descriptor returns; on overflow, the columns ride the result object
    itself.
    """
    n = len(events)
    fields = events.export_fields()
    if n <= handle.capacity:
        block = _attach_blocks(handle)[slot]
        for name, _ in EVENT_FIELDS:
            block[name][:n] = fields[name]
        return ShardResult(slot=slot, count=n, stats=stats)
    return ShardResult(
        slot=-1,
        count=n,
        stats=stats,
        payload=tuple(fields[name] for name, _ in EVENT_FIELDS),
        overflow=True,
    )


def shard_events(
    result: ShardResult, plane: Optional[ResultPlane]
) -> EventBatch:
    """One shard's canonical events: a view of its block, or its payload.

    A block shard is a zero-copy view, valid until the slot is recycled
    by the next trace call.  An overflowed shard raises a
    :class:`ResultPlaneWarning` here (the parent process, where warnings
    actually reach the caller).
    """
    if result.slot >= 0:
        if plane is None:
            raise RuntimeError(
                "shard descriptor references a result block but the "
                "parent holds no result plane"
            )
        return plane.view(result.slot, result.count)
    if result.overflow:
        warnings.warn(
            f"result block overflow: a shard produced {result.count} "
            f"events, above the preallocated capacity "
            f"(EVENTS_PER_PHOTON_HEADROOM={EVENTS_PER_PHOTON_HEADROOM}); "
            "the shard fell back to pickling — answer unchanged, "
            "transport win lost",
            ResultPlaneWarning,
            stacklevel=3,
        )
    return EventBatch(*result.payload)


def gather_shards(
    results: Sequence[ShardResult], plane: Optional[ResultPlane]
) -> tuple[EventBatch, TraceStats]:
    """Merge shard results (job order) into one canonical batch + stats.

    Plane shards contribute zero-copy views; the single copy happens in
    the concat, which also frees the blocks for recycling by the next
    request.  Shards cover contiguous ascending photon ranges and each
    arrives canonically sorted, so the concatenation is globally
    canonical.
    """
    stats = TraceStats()
    for r in results:
        stats.merge(r.stats)
    return EventBatch.concat([shard_events(r, plane) for r in results]), stats


def wire_bytes(results: Sequence[ShardResult]) -> int:
    """Bytes these results crossed the process boundary with.

    Diagnostics for the benchmark's wire-bytes row: descriptors are
    measured exactly (their pickle is tiny); payload shards count as the
    descriptor plus the raw column bytes — the dominant term — rather
    than re-pickling megabytes of arrays just to size them.  Cheap
    enough that :class:`~repro.parallel.procpool.PhotonPool` records it
    for every shard that lands.
    """
    import pickle

    total = 0
    for r in results:
        if r.payload is None:
            total += len(pickle.dumps(r))
        else:
            total += len(pickle.dumps(replace(r, payload=None)))
            total += sum(a.nbytes for a in r.payload)
    return total
