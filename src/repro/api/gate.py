"""The kernel gate: one in-process kernel section at a time.

A serial session's trace is thousands of small NumPy calls that each
drop and re-take the GIL, so two of them on two serving threads convoy
instead of overlapping — each runs at less than half speed.
:class:`~repro.api.RenderSession` therefore holds :data:`KERNEL_GATE`
around every in-process, CPU-bound kernel section, and sections run to
completion one at a time.  What is gated, what never is, and why a cache
miss looks the cache up *after* taking the gate is in
``docs/ARCHITECTURE.md`` ("Kernel gate").

Waiters are served in whatever order the platform lock wakes them; the
gate adds no queue of its own.
"""

from __future__ import annotations

import threading

__all__ = ["KERNEL_GATE", "KernelGate"]


class KernelGate:
    """A plain lock plus two clock-free counters (the ``/stats`` stanza).

    Attributes:
        acquired: Times the gate was taken.
        contended: How many of those found it held — a non-blocking try
            failed before the blocking acquire.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0
        self.contended = 0

    def __enter__(self) -> "KernelGate":
        contended = not self._lock.acquire(blocking=False)
        if contended:
            self._lock.acquire()
        # Booked by the holder, so the counters never lose an update.
        self.acquired += 1
        self.contended += contended
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._lock.release()

    def locked(self) -> bool:
        """Whether some thread is inside a kernel section right now."""
        return self._lock.locked()

    def snapshot(self) -> dict:
        """The counters.  Read without the gate: a ``/stats`` reader must
        not queue behind a trace, and a torn pair is off by one at most."""
        return {"acquired": self.acquired, "contended": self.contended}


#: The process-wide gate.  There is exactly one, and no option selects
#: another: the GIL it works around is process-wide too.
KERNEL_GATE = KernelGate()
