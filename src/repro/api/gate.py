"""The kernel gate: one in-process kernel section at a time.

An in-process trace is thousands of small NumPy calls that each drop
and re-take the GIL, so two of them on two serving threads convoy
instead of overlapping — each runs at less than half speed.  Every
in-process kernel section therefore holds :data:`KERNEL_GATE` and runs
to completion alone: an engine's trace, a pool's shard tally, a top-up
copy, a convergence check, a render — the same sections whatever a
session's worker count.  The gate only serialises CPU work: it is never
held across a wait, and it coalesces nothing (single-flight is
:meth:`repro.api.amortize.ForestCache.flight`).  Waiters are served in
whatever order the platform lock wakes them; ``docs/ARCHITECTURE.md``
("Kernel gate") has the rest.
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
