"""Zero-copy shared-memory result plane: the outbound event transport.

The scene plane (:mod:`repro.parallel.shmplane`) makes the *inbound*
transport of the process pool zero-copy — a kilobyte handle crosses the
boundary, never a scene pickle.  This module is the *outbound* half and
the pool's only result transport: pickling every worker's full
:class:`EventBatch` (eight 8-byte columns per tally event) back to the
parent would scale return bytes with the **photon budget**; result
blocks scale them with the worker count instead:

* The parent preallocates one segment holding **per-shard result
  blocks** (:class:`ResultPlane`), each sized to the most events its
  shard can make (:func:`block_capacity`), so a shard always fits.
* Each trace job writes its canonically sorted events straight into its
  block (:func:`pack_shard` — the columns of
  :data:`repro.core.vectorized.EVENT_FIELDS` via
  :meth:`EventBatch.export_fields`), and the indices of its escaped
  photons into one more column, and returns a tiny :class:`ShardResult`
  descriptor: ``(slot, count, photons, escapes)``, a few hundred bytes
  regardless of budget.
* The parent reads each shard through a **zero-copy view** over the
  same bytes (:func:`shard_events` / :meth:`ResultPlane.view`,
  :meth:`ResultPlane.escaped`) and tallies it in place as it lands — a
  whole budget, a top-up and a stream chunk alike, the trace counts of
  each tallied block read off its rows and escapes; only a caller that
  wants the events themselves concatenates the shards
  (:func:`gather_shards`).  The whole request crosses the process
  boundary in O(workers) descriptors.

Blocks are keyed by **job slot**, not worker identity: the executor
may hand two shards to one process, and slot-addressed blocks make that
harmless.  Parent and workers never write the same bytes — each job owns
its slot exclusively, the parent reads a slot only after its job has
returned, and a call that leaves early waits out its jobs first, so
none of them writes into a slot the next call reads.

Capacity and failure contract
-----------------------------
A photon makes one emission event and at most
:data:`~repro.core.simulator.MAX_BOUNCES` reflection events:
:meth:`~repro.core.vectorized.VectorEngine.step` retires a lane at the
bounce cap before its hit test, fluorescence rescues included.  A
block of ``photons * (MAX_BOUNCES + 1)`` events therefore holds any
shard of that many photons, whatever the scene, and there is one
transport.  The bound costs address space, not memory: a ``/dev/shm``
segment is sparse, and only the pages a worker writes are allocated
(pinned by ``tests/parallel/test_resultplane.py::TestSparseSegment``).
A block segment that cannot be *created* is the one failure:
:class:`ResultPlane` lets the ``OSError`` (full ``/dev/shm``) or
``RuntimeError`` (no ``shared_memory``) propagate.  The pool's regrow
unlinks the old segment first, so the failure leaves nothing behind and
the next request allocates afresh.

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

import pickle
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.simulator import MAX_BOUNCES, TraceStats
from ..core.vectorized import EVENT_FIELDS, EventBatch, block_stats
from .shmplane import SegmentOwner, allocate_segment, attach_segment

__all__ = [
    "ResultBlockHandle",
    "ResultPlane",
    "ShardResult",
    "block_capacity",
    "detach_worker_blocks",
    "gather_shards",
    "pack_shard",
    "shard_events",
    "wire_bytes",
]


def block_capacity(photons_per_shard: int) -> int:
    """Events a shard's block holds for a *photons_per_shard* budget:
    one emission and at most ``MAX_BOUNCES`` reflections per photon."""
    return photons_per_shard * (MAX_BOUNCES + 1)


#: A block's columns: the events', then the shard's escaped photon
#: indices, ascending.  Every column holds ``capacity`` rows; a shard
#: has no more escapes than events, so the last always fits too.
_BLOCK_FIELDS = EVENT_FIELDS + (("escaped", "<i8"),)


@dataclass(frozen=True)
class ResultBlockHandle:
    """Everything a worker needs to write a result block.

    Pickles in a few hundred bytes regardless of budget: the payload
    lives in the named segment.  ``column_offsets`` places each
    :data:`~repro.core.vectorized.EVENT_FIELDS` column, then the escaped
    photons' column, *within* a block; block *i* starts at ``i *
    block_stride``.

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
    for name, dt in _BLOCK_FIELDS:
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

    def escaped(self, slot: int, count: int) -> np.ndarray:
        """Zero-copy view of block *slot*'s first *count* escaped photon
        indices, valid as long as :meth:`view`'s."""
        return self._views[slot]["escaped"][:count]

    def close(self) -> None:
        # Views into the buffer must die before SharedMemory.close() —
        # an exported pointer makes close() raise BufferError.
        self._views = []
        super().close()


@dataclass
class ShardResult:
    """What one trace job sends back: a descriptor, not the events.

    The shard's *count* events and the indices of its *escapes* escaped
    photons sit in result block *slot*, so this object pickles in a few
    hundred bytes.  *photons* is the shard's photon count.  *faults* is
    the minor page faults the worker took tracing and packing the shard
    (0 where nothing measured them).
    """

    slot: int
    count: int
    photons: int
    escapes: int
    faults: int = 0

    @property
    def overflow(self) -> bool:
        """Always ``False``: a shard always fits its block.

        Stays only for the benchmark's ``resultplane.overflows`` row,
        which reads it, until the benchmark change that drops that row.
        """
        return False


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
    escaped: np.ndarray,
    photons: int,
    handle: ResultBlockHandle,
    slot: int,
) -> ShardResult:
    """Copy one shard of *photons* photons — its events and its escaped
    photons' indices, ascending — into result block *slot*; its
    descriptor.

    The single worker-side exit point of the trace phase.  The block
    was sized by :func:`block_capacity`, so the events always fit.
    """
    n = len(events)
    fields = events.export_fields()
    block = _attach_blocks(handle)[slot]
    for name, _ in EVENT_FIELDS:
        block[name][:n] = fields[name]
    block["escaped"][:escaped.size] = escaped
    return ShardResult(
        slot=slot, count=n, photons=photons, escapes=int(escaped.size)
    )


def shard_events(result: ShardResult, plane: Optional[ResultPlane]) -> EventBatch:
    """One shard's canonical events: a zero-copy view of its block,
    valid until the slot is recycled by the next trace call."""
    if plane is None:
        raise RuntimeError(
            "shard descriptor references a result block but the "
            "parent holds no result plane"
        )
    return plane.view(result.slot, result.count)


def gather_shards(
    results: Sequence[ShardResult], plane: Optional[ResultPlane]
) -> tuple[EventBatch, TraceStats]:
    """Merge shard results (job order) into one canonical batch + stats.

    Plane shards contribute zero-copy views; the single copy happens in
    the concat, which also frees the blocks for recycling by the next
    request.  Shards cover contiguous ascending photon ranges and each
    arrives canonically sorted, so the concatenation is globally
    canonical.  The counts are read off the batch
    (:func:`~repro.core.vectorized.block_stats`).
    """
    events = EventBatch.concat([shard_events(r, plane) for r in results])
    photons = sum(r.photons for r in results)
    return events, block_stats(events, photons, sum(r.escapes for r in results))


def wire_bytes(results: Sequence[ShardResult]) -> int:
    """Bytes these descriptors crossed the process boundary with.

    Diagnostics for the benchmark's wire-bytes row, measured exactly:
    a descriptor's pickle is tiny, so
    :class:`~repro.parallel.procpool.PhotonPool` records it for every
    shard that lands.
    """
    return sum(len(pickle.dumps(r)) for r in results)
