"""Cross-request amortization: exact reuse of traced photons.

The per-photon counter-based LCG substreams
(:func:`repro.core.vectorized.photon_substream`) make photon *i*'s
trajectory independent of every other photon, so the events of photons
``[0, n)`` are a strict prefix of the events of ``[0, m)`` for any
``m > n``.  Canonical tally replay is order-insensitive to chunking
(the stream-parity contract), which turns that prefix property into an
*exact* serving optimisation: a request for ``m`` photons can start
from a cached ``n``-photon forest and trace only ``[n, m)`` —
byte-identical to a cold full-budget run, never an approximation.

One cache implements the idea: :class:`ForestCache`, owned by the
:class:`~repro.api.SceneProgram` (the compile-once object every session
on a scene shares) so all sessions in a service
:class:`~repro.service.pool.SessionPool` share hits.  It holds built
forests keyed by the **camera- and budget-free trace key** (split
policy, fluorescence, seed).  The key deliberately excludes the worker
count: answers are worker-invariant (the golden matrix pins this), so a
forest traced by one session shape tops up a request served by
another.

The sharing rule: **hits share, the first extension copies, nothing
reachable from the cache is ever mutated.**  A serve that traces
nothing (an exact repeat, an already-converged early stop, a
camera-only render) returns the cached forest object itself; a top-up
deep-copies it once, immediately before the first chunk that extends
it, and stores the grown copy.  Every reader of a served forest
(serialisation, the radiance field, the convergence summary) is
read-only, which is what makes handing out the shared object sound.

The cache is a thread-safe bounded LRU: sessions in a pool serve on
concurrent executor threads, and a long-lived serving process must not
accumulate every forest it ever traced.  It is also the one
single-flight point: a serve it cannot answer extends the key under
:meth:`ForestCache.flight`, so concurrent identical requests trace
once, whatever the worker count of the sessions serving them.
Amortization counters (exact hits, top-ups, camera-only hits, photons
saved, early stops) live here too and surface through the service
``/stats`` endpoint.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Iterator, Optional, TYPE_CHECKING

from ..core.convergence import forest_error_summary

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..core.bintree import BinForest
    from ..core.simulator import SimulationConfig

__all__ = [
    "DEFAULT_FOREST_CACHE_ENTRIES",
    "CachedTrace",
    "ForestCache",
    "trace_key",
]

#: Forest-cache entry bound.  Forests are the dominant per-answer
#: memory cost, so the bound is deliberately small: one entry per
#: distinct (policy, fluorescence, seed) trace family a warm process
#: is actively serving.
DEFAULT_FOREST_CACHE_ENTRIES = 8


def trace_key(config: "SimulationConfig") -> tuple:
    """The camera- and budget-free identity of a photon trace.

    Everything that changes *which events exist* is in the key; the
    photon budget (a prefix length, not an identity) and the worker
    count, byte-invariant by contract, are excluded.  Sessions trace
    only with the vector engine on substreams at one fixed wave width,
    so none of those is part of the identity either.
    """
    return (config.policy, config.fluorescence, config.seed)


class CachedTrace:
    """An immutable-by-convention cached trace: the ``n``-photon forest.

    The forest, trace counts included
    (:attr:`~repro.core.bintree.BinForest.trace_stats`), is shared with
    every :class:`SimulationResult` served from this entry — the cold
    serve that stored it and each later hit that traced nothing;
    consumers must deep-copy before extending it (the top-up path does),
    never mutate it in place.
    """

    __slots__ = ("n", "forest", "_median_error")

    def __init__(self, n: int, forest: "BinForest") -> None:
        self.n = n
        self.forest = forest
        self._median_error: Optional[float] = None

    def median_relative_error(self) -> float:
        """The forest's median per-bin relative error, computed once.

        The forest never changes, so neither does its convergence
        summary; remembering it is what lets a repeated early-stop
        request be answered by a lookup, without a walk of every leaf.
        """
        if self._median_error is None:
            self._median_error = forest_error_summary(
                self.forest
            ).median_relative_error
        return self._median_error


class ForestCache:
    """Thread-safe bounded LRU of built forests, keyed by trace key.

    Each key holds the **largest** forest traced for it so far — a
    smaller run is a prefix of a larger one, so keeping the largest
    maximises what later requests can reuse.  ``lookup`` returns the
    entry only when it can seed the request (``entry.n <= n``); a
    forest cannot be truncated, so an oversized entry is a miss.
    """

    def __init__(self, max_entries: int = DEFAULT_FOREST_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CachedTrace]" = OrderedDict()
        # trace key -> [its flight lock, serves holding or awaiting it]
        self._flights: dict = {}
        # Amortization counters (the /stats payload).
        self.exact_hits = 0
        self.topups = 0
        self.camera_only_hits = 0
        self.photons_saved = 0
        self.early_stops = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, n: int) -> Optional[CachedTrace]:
        """The reusable entry for *key*, or ``None``.

        Reusable means ``entry.n <= n``: the cached forest is the exact
        answer prefix a request for *n* photons starts from (equal
        ``n`` — zero tracing left).  A hit refreshes LRU recency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.n > n:
                return None
            self._entries.move_to_end(key)
            return entry

    @contextlib.contextmanager
    def flight(self, key: tuple) -> Iterator[None]:
        """Hold *key*'s single-flight lock: one serve extends a key at a time.

        A serve the cache cannot answer holds it from its second
        :meth:`lookup` to its :meth:`store`; a serve of the key arriving
        meanwhile waits, then finds what the first stored.  The lock
        lives only while some serve holds or awaits it.
        """
        with self._lock:
            flight = self._flights.setdefault(key, [threading.Lock(), 0])
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]

    def store(self, key: tuple, n: int, forest: "BinForest") -> None:
        """Record the *n*-photon forest for *key* if it grows the entry.

        Only monotonically growing budgets are kept (a smaller forest
        adds nothing a prefix copy of the larger one would not), and
        empty traces are never stored.
        """
        if n <= 0:
            return
        with self._lock:
            current = self._entries.get(key)
            if current is not None and current.n >= n:
                return
            self._entries[key] = CachedTrace(n, forest)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    # -- counters ----------------------------------------------------------

    def record_serve(
        self, reused_photons: int, traced_photons: int, early_stop: bool
    ) -> None:
        """Book one amortized serve's counters."""
        with self._lock:
            if reused_photons > 0:
                self.photons_saved += reused_photons
                if traced_photons > 0:
                    self.topups += 1
                else:
                    self.exact_hits += 1
            if early_stop:
                self.early_stops += 1

    def record_camera_only(self) -> None:
        """Book one camera-only serve (render of a fully cached trace)."""
        with self._lock:
            self.camera_only_hits += 1

    def snapshot(self) -> dict:
        """Counters + occupancy (one scene's ``/stats`` stanza)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "exact_hits": self.exact_hits,
                "topups": self.topups,
                "camera_only_hits": self.camera_only_hits,
                "photons_saved": self.photons_saved,
                "early_stops": self.early_stops,
            }
