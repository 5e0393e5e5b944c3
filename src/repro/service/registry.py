"""LRU registry of resident scenes: the one owner of a scene's lifecycle.

One serving process hosts **many** compiled
:class:`~repro.api.SceneProgram` objects, each behind its own
:class:`~repro.service.pool.SessionPool`; the pool *is* the registry's
entry.  Compiled arrays are the dominant memory cost, so residency is
budgeted: at most ``max_programs`` pools (and optionally ``max_bytes``
of compiled array payload, recorded per pool at admission) stay
resident, evicted in least-recently-used order.

A spec moves through three states, all held here:

* **admitting** — concurrent first requests share one admit task (one
  scene build + compile), as one program's lock covers its plane's
  publish one layer down;
* **resident** — served by :meth:`ProgramRegistry.get`;
* **draining** — evicted while a session was still checked out.  The
  pool closes its idle sessions and fails its queued waiters at once;
  each checked-out session finishes its in-flight request and closes on
  release.  Each live session's worker pool holds one reference on the
  program's ``/dev/shm`` plane, so the segment unlinks exactly when the
  **last** session closes — never under a request's feet.  The registry
  reports draining pools in :meth:`~ProgramRegistry.stats`, forgets each
  one when its last session has closed, and force-retires what is left
  in ``close(force=True)``.

A re-requested evicted spec is simply re-admitted (compile + publish
run again); determinism makes the round trip invisible in the answer
bytes.

The registry is event-loop affine like the pools it holds; the
(blocking) scene build + compile runs inside the caller-supplied async
factory, which the service routes through its executor.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Awaitable, Callable, Optional

from ..api import SceneProgram
from .pool import SessionPool

__all__ = ["ProgramRegistry", "program_nbytes"]


def program_nbytes(program: SceneProgram) -> int:
    """Resident byte cost of a compiled program (its kernel arrays).

    The same field set the shared-memory plane publishes, so the
    registry's byte budget and the segment payload agree.
    """
    return int(
        sum(arr.nbytes for arr in program.arrays.export_fields().values())
    )


#: Factory signature: spec -> the scene's SessionPool (may run blocking
#: work on an executor; the registry awaits it under a per-spec latch).
AdmitFactory = Callable[[str], Awaitable[SessionPool]]


class ProgramRegistry:
    """LRU-evicting table of resident session pools under a budget.

    Args:
        factory: Async callable building the
            :class:`~repro.service.pool.SessionPool` for a spec on
            admission (scene build + compile + pool creation).
        max_programs: Resident-program count budget (>= 1).
        max_bytes: Optional compiled-array byte budget.  Budgets are
            floors-of-one: the most recently admitted program always
            stays resident even if it alone exceeds ``max_bytes``
            (refusing it would make the scene unservable).
    """

    def __init__(
        self,
        factory: AdmitFactory,
        *,
        max_programs: int = 4,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_programs < 1:
            raise ValueError("max_programs must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        self._factory = factory
        self.max_programs = max_programs
        self.max_bytes = max_bytes
        #: spec -> resident pool, least- to most-recently used.
        self._resident: "OrderedDict[str, SessionPool]" = OrderedDict()
        #: spec -> compiled-array bytes of the resident pool's program.
        self._nbytes: dict[str, int] = {}
        #: spec -> in-flight admit task (single-flight admission).
        self._admits: dict[str, asyncio.Task] = {}
        #: Evicted pools with a session still out, oldest first.
        self._draining: list[SessionPool] = []
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookup ------------------------------------------------------------

    async def get(self, spec: str) -> SessionPool:
        """The resident pool for *spec*, admitting (once) on a miss.

        A hit refreshes the entry's recency.  Concurrent misses for one
        spec share a single admit; an admit failure propagates to every
        waiter and leaves the spec absent (a later request retries).
        """
        if self._closed:
            raise RuntimeError("this ProgramRegistry is closed")
        pool = self._resident.get(spec)
        if pool is not None:
            self.hits += 1
            self._resident.move_to_end(spec)
            return pool
        admit = self._admits.get(spec)
        if admit is not None:
            self.hits += 1
        else:
            self.misses += 1
            admit = asyncio.get_running_loop().create_task(self._admit(spec))
            self._admits[spec] = admit
        return await asyncio.shield(admit)

    async def _admit(self, spec: str) -> SessionPool:
        try:
            pool = await self._factory(spec)
        finally:
            del self._admits[spec]
        self._resident[spec] = pool
        self._nbytes[spec] = program_nbytes(pool.program)
        await self._evict_over_budget(keep=spec)
        return pool

    # -- eviction ----------------------------------------------------------

    def resident_specs(self) -> list[str]:
        """Resident specs, least- to most-recently used."""
        return list(self._resident)

    def resident_bytes(self) -> int:
        """Total compiled-array bytes currently resident."""
        return sum(self._nbytes.values())

    def _over_budget(self) -> bool:
        if len(self._resident) > self.max_programs:
            return True
        return (
            self.max_bytes is not None
            and len(self._resident) > 1
            and self.resident_bytes() > self.max_bytes
        )

    async def _evict_over_budget(self, keep: str) -> None:
        while self._over_budget():
            victim = next((spec for spec in self._resident if spec != keep), None)
            if victim is None:
                return
            await self._evict_one(victim)

    async def _evict_one(self, spec: str) -> None:
        self.evictions += 1
        await self._retire(spec)

    async def _retire(self, spec: str) -> None:
        """Drop *spec* from residency; track its pool until it drains."""
        pool = self._resident.pop(spec)
        del self._nbytes[spec]
        self._draining.append(pool)
        await pool.retire(on_drained=lambda: self._draining.remove(pool))

    async def evict(self, spec: str) -> bool:
        """Explicitly evict *spec*; True when it was resident."""
        if spec not in self._resident:
            return False
        await self._evict_one(spec)
        return True

    # -- teardown ----------------------------------------------------------

    async def close(self, force: bool = False) -> None:
        """Retire every pool (idempotent).

        In-flight admits are awaited first so their pools do not appear
        after the sweep.  Resident pools retire like an eviction; with
        ``force`` (the final-shutdown close-everything mode) every pool
        still draining is then force-retired and forgotten.
        """
        if self._closed:
            return
        self._closed = True
        for admit in list(self._admits.values()):
            try:
                await admit
            # repro: allow[hyg-broad-except] — settlement-only wait:
            # the admit's failure (or cancellation, a BaseException)
            # was already delivered to the requester that started
            # it; close only needs the task to be finished.
            except BaseException:
                pass
        while self._resident:
            await self._retire(next(iter(self._resident)))
        if force:
            for pool in list(self._draining):
                await pool.retire(force=True)
            self._draining.clear()

    # -- reporting ---------------------------------------------------------

    def scene_stats(self) -> dict:
        """Per-scene ``/stats`` stanzas of the resident pools."""
        return {
            spec: {
                "patches": pool.program.patch_count,
                "nbytes": self._nbytes[spec],
                "pool": pool.stats(),
                "amortize": pool.program.amortize_stats(),
            }
            for spec, pool in self._resident.items()
        }

    def stats(self) -> dict:
        """Residency, draining and traffic counters (the /stats payload)."""
        return {
            "resident": self.resident_specs(),
            "resident_bytes": self.resident_bytes(),
            "draining": [pool.label for pool in self._draining],
            "max_programs": self.max_programs,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
