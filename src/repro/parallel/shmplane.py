"""Zero-copy shared-memory scene plane for process-pool workers.

The paper's shared-memory variant (Figure 5.2) assumes every worker
reads *one* scene and *one* bin forest in place.  This module is how the
process pool (:mod:`repro.parallel.procpool`) honours that: it is the
pool's only scene transport, on every scene size, so no worker ever
receives a scene pickle or compiles its own flat octree (the dominant
startup cost on large scenes — the computer-lab flat compile walks ~28k
pointer nodes).

It publishes the compiled scene — every array of
:class:`~repro.core.vectorized.SceneArrays`, including the eleven
:class:`~repro.geometry.flatoctree.FlatOctree` arrays — into **one named**
``multiprocessing.shared_memory`` **segment**:

* :func:`publish` lays the arrays into the segment back to back
  (16-byte aligned) and returns a :class:`ScenePlane` that owns the
  segment's lifecycle.
* :attr:`ScenePlane.handle` is a :class:`PlaneHandle`: the segment name
  plus ``(field, dtype, shape, offset)`` rows and the one non-array
  scalar (``total_power``).  It pickles in a few kilobytes regardless of
  scene size — that is all that ever crosses the process boundary.
* :func:`attach` (worker side) maps the segment and rebuilds a
  :class:`SceneArrays` whose attributes are **read-only views** into the
  shared buffer — no copies, no octree compilation, bit-identical
  tracing (the plane holds the exact bytes the publisher computed).

Lifecycle contract
------------------
The publisher is the segment's owner: it must :meth:`ScenePlane.close`
*and* :meth:`ScenePlane.unlink` when done (the context manager does
both, including on exceptions).  On the serving path the publisher is
:meth:`repro.api.SceneProgram.acquire_plane`: each program publishes
one segment on its first acquire and unlinks it on its last release,
and every :class:`~repro.parallel.procpool.PhotonPool` borrows one
reference while it runs.  Workers only ever attach; their
mappings are cached per segment for the life of the process and torn
down by the OS at process exit — a worker must **not** unlink.  After
``unlink`` the name is gone: late attaches raise ``FileNotFoundError``
and the handle is dead.  :func:`leaked_segments` scans for segments the
publisher failed to release (tests assert it stays empty).

There is no second transport to fall back to: where
``multiprocessing.shared_memory`` is unavailable :func:`publish` raises
``RuntimeError``, and where ``/dev/shm`` cannot hold the segment it
raises ``OSError`` — both propagate to the caller with nothing left
allocated.  Single-process runs (``workers=1``) never touch this module.

Generalized segment machinery
-----------------------------
The layout/ownership primitives are shared with the **outbound** half of
the transport, the per-worker result blocks of
:mod:`repro.parallel.resultplane`: :func:`layout_fields` places any
name -> array mapping at aligned offsets, :func:`allocate_segment`
creates a raw leak-scannable segment, and :class:`SegmentOwner` is the
idempotent close/unlink lifecycle both plane directions use.  Every
segment name this package mints starts with
:data:`PLANE_SEGMENT_PREFIX`, so one :func:`leaked_segments` scan covers
the scene plane and all result blocks.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass

import numpy as np

from ..core.vectorized import SceneArrays

try:  # pragma: no cover — import succeeds on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None  # type: ignore[assignment]

__all__ = [
    "PLANE_SEGMENT_PREFIX",
    "PlaneHandle",
    "ScenePlane",
    "SegmentOwner",
    "allocate_segment",
    "layout_fields",
    "plane_available",
    "publish",
    "attach",
    "detach_all",
    "leaked_segments",
    "attach_segment",
]

#: Every plane segment name starts with this, so leak checks can scan
#: ``/dev/shm`` without false positives from other software.
PLANE_SEGMENT_PREFIX = "photon-plane-"

#: Field offsets are rounded up to this many bytes so every dtype in the
#: plane (float64/int64/int32/bool) lands aligned.
_ALIGN = 16


def plane_available() -> bool:
    """True when this platform can create shared-memory segments."""
    return _shm is not None


#: Serializes the brief resource-tracker patch in :func:`attach_segment`
#: against a concurrent create (whose registration must NOT be lost).
_TRACKER_PATCH_LOCK = threading.Lock()


def attach_segment(name: str):
    """Map an existing segment *without* telling the resource tracker.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker (until 3.13's ``track=False``) even
    though the attacher is not the owner.  That breaks ownership both
    ways: a pool worker forked before the parent's tracker existed
    spawns its **own** tracker, which "cleans up" — unlinks — the
    parent's live segment when the worker exits; and a worker sharing
    the parent's tracker that *unregisters* instead would erase the
    owner's legitimate registration (the tracker cache is keyed by name
    only).  So attaches must never touch the tracker at all:
    registration is suppressed for the duration of the map.  Every
    attach path in this package (scene plane and result blocks) goes
    through here; only the publishing side registers, and its ``unlink``
    unregisters.

    Residual limitation: the suppression patch is process-global, so a
    ``SharedMemory(create=True)`` issued by *foreign* code in another
    thread during the (microseconds-wide) patched window would also
    skip registration.  :data:`_TRACKER_PATCH_LOCK` protects every
    create this package performs; code outside it is on its own until
    3.13's ``track=False`` removes the need for the patch entirely.
    """
    if _shm is None:
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover — tracker absent off-CPython
        return _shm.SharedMemory(name=name)
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def layout_fields(
    fields: dict,
) -> tuple[list[tuple[str, str, tuple[int, ...], int]], int]:
    """Lay a name -> array mapping into one segment, back to back.

    The scene plane's layout engine (:func:`publish`): arrays are
    placed in sorted-name order at 16-byte-aligned offsets; *fields* is
    normalised to contiguous arrays in place.  Returns the
    ``(name, dtype_str, shape, offset)`` rows plus the total byte size.
    The result plane lays out differently — fixed-stride per-slot
    blocks in :data:`~repro.core.vectorized.EVENT_FIELDS` order
    (``resultplane._block_layout``) — but shares this module's
    alignment rule (:func:`_aligned`) and segment primitives.
    """
    layout: list[tuple[str, str, tuple[int, ...], int]] = []
    offset = 0
    for name in sorted(fields):
        arr = np.ascontiguousarray(fields[name])
        fields[name] = arr
        offset = _aligned(offset)
        layout.append((name, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return layout, offset


def segment_name(tag: str) -> str:
    """A fresh leak-scannable segment name (``photon-plane-<tag>-…``).

    Every segment this package creates — scene plane or result blocks —
    goes through here, so :func:`leaked_segments` covers all of them
    with one prefix.
    """
    return f"{PLANE_SEGMENT_PREFIX}{tag}{os.getpid():x}-{secrets.token_hex(4)}"


def allocate_segment(nbytes: int, tag: str = ""):
    """Create an empty named shared-memory segment of *nbytes*.

    The raw allocation primitive behind the result plane's per-worker
    blocks (the scene plane allocates through :func:`publish`, which
    also writes the payload).  Raises ``RuntimeError`` on platforms
    without ``shared_memory`` and ``OSError`` when ``/dev/shm`` cannot
    hold the segment; nothing is left allocated either way.
    """
    if _shm is None:
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    # Under the same lock as attach_segment's register patch: the
    # owner's create MUST reach the resource tracker, so it cannot run
    # while another thread has register no-op'd.
    with _TRACKER_PATCH_LOCK:
        return _shm.SharedMemory(
            create=True, size=max(nbytes, 1), name=segment_name(tag)
        )


class SegmentOwner:
    """Owner side of one shared-memory segment: close/unlink lifecycle.

    The generic half of :class:`ScenePlane`, reused by the result plane
    (:class:`repro.parallel.resultplane.ResultPlane`): idempotent
    :meth:`close` and :meth:`unlink`, and a context manager that
    releases on exceptions.  Whoever creates a segment owns it and must
    unlink it; attachers never do.
    """

    def __init__(self, shm) -> None:
        self._shm = shm
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Unmap the owner's view (idempotent); the segment survives."""
        if not self._closed:
            self._shm.close()
            self._closed = True

    def unlink(self) -> None:
        """Remove the segment name (idempotent); late attaches now fail."""
        if not self._unlinked:
            self._shm.unlink()
            self._unlinked = True

    def __enter__(self) -> "SegmentOwner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


@dataclass(frozen=True)
class PlaneHandle:
    """Everything a worker needs to reattach a published plane.

    Pickles as names + shapes + dtypes + offsets (a few KB), never the
    array payload: the payload lives in the named segment.

    Attributes:
        segment: Shared-memory segment name.
        fields: ``(name, dtype_str, shape, offset)`` per array, in the
            exact layout :func:`publish` wrote.
        total_power: The one scalar :class:`SceneArrays` attribute.
        nbytes: Total segment payload size (diagnostics only).
    """

    segment: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]
    total_power: float
    nbytes: int


class ScenePlane(SegmentOwner):
    """Owner side of a published plane: the segment plus its handle.

    Use as a context manager for exception-safe release::

        with publish(SceneArrays(scene)) as plane:
            pool = Pool(initializer=..., initargs=(plane.handle, ...))
            ...
        # segment closed AND unlinked here, error or not
    """

    def __init__(self, shm, handle: PlaneHandle) -> None:
        super().__init__(shm)
        self.handle = handle

    @property
    def name(self) -> str:
        return self.handle.segment


def publish(arrays: SceneArrays) -> ScenePlane:
    """Copy *arrays* into a fresh named segment; returns its owner.

    One segment holds the whole plane: a single name to pass around and
    a single unlink to clean up.  Raises ``RuntimeError`` when the
    platform has no ``shared_memory`` and ``OSError`` when the segment
    cannot be created (full or unwritable ``/dev/shm``).
    """
    fields = arrays.export_fields()
    layout, nbytes = layout_fields(fields)
    shm = allocate_segment(nbytes)
    for name, dtype, shape, off in layout:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        view[...] = fields[name]
    handle = PlaneHandle(
        segment=shm.name,
        fields=tuple(layout),
        total_power=arrays.total_power,
        nbytes=nbytes,
    )
    return ScenePlane(shm, handle)


#: Worker-side attachments, one per segment name.  The SharedMemory
#: object must outlive every view into it, so it is cached for the life
#: of the process (the OS unmaps at exit); repeat attaches are free.
_ATTACHED: dict[str, tuple[object, SceneArrays]] = {}


def attach(handle: PlaneHandle) -> SceneArrays:
    """Map *handle*'s segment and rebuild a zero-copy :class:`SceneArrays`.

    Every array attribute is a **read-only** view into the shared
    buffer (the plane is immutable by contract — a stray in-place write
    in a kernel would corrupt every worker at once, so NumPy is told to
    refuse it).  Attaching the same segment again returns the cached
    instance.  Raises ``FileNotFoundError`` once the owner has unlinked.
    """
    if _shm is None:
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    cached = _ATTACHED.get(handle.segment)
    if cached is not None:
        return cached[1]
    shm = attach_segment(handle.segment)
    views: dict[str, np.ndarray] = {}
    for name, dtype, shape, off in handle.fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        view.flags.writeable = False
        views[name] = view
    arrays = SceneArrays.from_fields(views, total_power=handle.total_power)
    _ATTACHED[handle.segment] = (shm, arrays)
    return arrays


def detach_all() -> None:
    """Drop this process's cached attachments (tests; workers never need to).

    Closing invalidates the cached views, so this must only run when no
    engine built from them is still live.
    """
    while _ATTACHED:
        _, (shm, _arrays) = _ATTACHED.popitem()
        shm.close()  # type: ignore[attr-defined]


def leaked_segments() -> list[str]:
    """Plane segments still registered with the OS (should be empty).

    Scans ``/dev/shm`` for :data:`PLANE_SEGMENT_PREFIX` names — the
    release-contract check the tests run after every pool teardown.
    Returns ``[]`` on platforms without a scannable ``/dev/shm``.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover — non-Linux hosts
        return []
    return sorted(
        name for name in os.listdir(root)
        if name.startswith(PLANE_SEGMENT_PREFIX)
    )
