"""LRU registry of resident scene programs for the serving tier.

One serving process hosts **many** compiled
:class:`~repro.api.SceneProgram` objects — the multi-tenant shape the
ROADMAP's "millions of users" item calls for — but compiled arrays are
the dominant memory cost, so residency is budgeted: at most
``max_programs`` programs (and optionally ``max_bytes`` of compiled
array payload) stay resident, evicted in least-recently-used order.

Eviction is *graceful*, layered on the program's refcounted scene
plane (:meth:`repro.api.SceneProgram.acquire_plane`): evicting a
program retires its :class:`~repro.service.pool.SessionPool`, which
closes idle sessions immediately but lets checked-out sessions finish
their in-flight request.  Each live session's worker pool holds one
reference on the program's published ``/dev/shm`` plane, so the segment
unlinks exactly when the **last** session closes — never under a
request's feet.  A re-requested evicted spec is simply re-admitted
(compile + publish run again); determinism makes the round trip
invisible in the answer bytes.

Admission is single-flight: concurrent first requests for the same spec
share one compile (per-spec admit task), as one program's lock covers
its plane's publish one layer down.

The registry is event-loop affine like the pools it manages; the
(blocking) scene build + compile runs inside the caller-supplied async
factory, which the service routes through its executor.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Awaitable, Callable, Optional, Union

from ..api import SceneProgram
from .pool import SessionPool

__all__ = ["ProgramRegistry", "ResidentProgram", "program_nbytes"]


def program_nbytes(program: SceneProgram) -> int:
    """Resident byte cost of a compiled program (its kernel arrays).

    The same field set the shared-memory plane publishes, so the
    registry's byte budget and the segment payload agree.
    """
    return int(
        sum(arr.nbytes for arr in program.arrays.export_fields().values())
    )


class ResidentProgram:
    """One resident scene: compiled program + its session pool.

    Attributes:
        spec: The scene spec this program was admitted under.
        program: The compiled :class:`~repro.api.SceneProgram`.
        pool: The scene's :class:`~repro.service.pool.SessionPool`.
        nbytes: Compiled-array payload size (byte-budget accounting).
    """

    def __init__(
        self,
        spec: str,
        program: SceneProgram,
        pool: SessionPool,
        *,
        nbytes: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.program = program
        self.pool = pool
        self.nbytes = nbytes if nbytes is not None else program_nbytes(program)

    async def retire(self, force: bool = False) -> None:
        """Drain (or force-close) the pool; see :meth:`SessionPool.retire`."""
        await self.pool.retire(force=force)

    def stats(self) -> dict:
        """Size and pool counters for this entry's ``/stats`` stanza."""
        return {
            "patches": self.program.patch_count,
            "nbytes": self.nbytes,
            "pool": self.pool.stats(),
            "amortize": self.program.amortize_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"ResidentProgram({self.spec!r}, {self.nbytes} bytes)"


#: Factory signature: spec -> ResidentProgram (may run blocking work on
#: an executor; the registry awaits it under a per-spec latch).
AdmitFactory = Callable[[str], Awaitable[ResidentProgram]]


class ProgramRegistry:
    """LRU-evicting table of resident programs under a budget.

    Args:
        factory: Async callable building a :class:`ResidentProgram` for
            a spec on admission (scene build + compile + pool creation).
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
        #: spec -> ResidentProgram | asyncio.Task (in-flight admit),
        #: ordered least- to most-recently used.
        self._entries: "OrderedDict[str, Union[ResidentProgram, asyncio.Task]]"
        self._entries = OrderedDict()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookup ------------------------------------------------------------

    async def get(self, spec: str) -> ResidentProgram:
        """The resident program for *spec*, admitting (once) on a miss.

        A hit refreshes the entry's recency.  Concurrent misses for one
        spec share a single admit; an admit failure propagates to every
        waiter and leaves the spec absent (a later request retries).
        """
        if self._closed:
            raise RuntimeError("this ProgramRegistry is closed")
        entry = self._entries.get(spec)
        if isinstance(entry, ResidentProgram):
            self.hits += 1
            self._entries.move_to_end(spec)
            return entry
        if entry is not None:  # an admit for this spec is in flight
            self.hits += 1
            return await asyncio.shield(entry)
        self.misses += 1
        task = asyncio.get_running_loop().create_task(self._admit(spec))
        self._entries[spec] = task
        return await asyncio.shield(task)

    async def _admit(self, spec: str) -> ResidentProgram:
        try:
            resident = await self._factory(spec)
        except BaseException:
            if self._entries.get(spec) is asyncio.current_task():
                del self._entries[spec]
            raise
        self._entries[spec] = resident
        self._entries.move_to_end(spec)
        await self._evict_over_budget(keep=spec)
        return resident

    # -- eviction ----------------------------------------------------------

    def resident_specs(self) -> list[str]:
        """Resident specs, least- to most-recently used."""
        return [
            spec
            for spec, entry in self._entries.items()
            if isinstance(entry, ResidentProgram)
        ]

    def resident_entries(self) -> list[ResidentProgram]:
        """Resident programs, least- to most-recently used."""
        return [
            entry
            for entry in self._entries.values()
            if isinstance(entry, ResidentProgram)
        ]

    def resident_bytes(self) -> int:
        """Total compiled-array bytes currently resident."""
        return sum(
            entry.nbytes
            for entry in self._entries.values()
            if isinstance(entry, ResidentProgram)
        )

    def _over_budget(self) -> bool:
        resident = self.resident_specs()
        if len(resident) > self.max_programs:
            return True
        return (
            self.max_bytes is not None
            and len(resident) > 1
            and self.resident_bytes() > self.max_bytes
        )

    async def _evict_over_budget(self, keep: str) -> None:
        while self._over_budget():
            victim_spec = next(
                (
                    spec
                    for spec, entry in self._entries.items()
                    if isinstance(entry, ResidentProgram) and spec != keep
                ),
                None,
            )
            if victim_spec is None:
                return
            await self._evict_one(victim_spec)

    async def _evict_one(self, spec: str) -> None:
        victim = self._entries.pop(spec)
        assert isinstance(victim, ResidentProgram)
        self.evictions += 1
        await victim.retire()

    async def evict(self, spec: str) -> bool:
        """Explicitly evict *spec*; True when it was resident."""
        entry = self._entries.get(spec)
        if not isinstance(entry, ResidentProgram):
            return False
        await self._evict_one(spec)
        return True

    # -- teardown ----------------------------------------------------------

    async def close(self, force: bool = False) -> None:
        """Retire every resident program (idempotent).

        In-flight admits are awaited first so their pools do not appear
        after the sweep.  ``force`` is passed through to each pool (the
        final-shutdown close-everything mode).
        """
        if self._closed:
            return
        self._closed = True
        for entry in list(self._entries.values()):
            if isinstance(entry, asyncio.Task):
                try:
                    await entry
                # repro: allow[hyg-broad-except] — settlement-only wait:
                # the admit's failure (or cancellation, a BaseException)
                # was already delivered to the requester that started
                # it; close only needs the task to be finished.
                except BaseException:
                    pass
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            if isinstance(entry, ResidentProgram):
                await entry.retire(force=force)

    def stats(self) -> dict:
        """Residency + traffic counters (the /stats payload)."""
        return {
            "resident": self.resident_specs(),
            "resident_bytes": self.resident_bytes(),
            "max_programs": self.max_programs,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
