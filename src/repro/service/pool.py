"""Per-scene pools of warm :class:`~repro.api.RenderSession` objects.

A :class:`~repro.api.RenderSession` serves **one request at a time**
(enforced by the session's reentrancy guard), so concurrency on one
scene means *several* sessions.  The pool keeps them warm and bounded:

* **Lazy growth** — sessions are created on demand up to
  ``max_sessions``; an idle session is reused in LIFO order (the most
  recently used one has the hottest engines/pools/planes).
* **Admission control** — when every session is checked out, up to
  ``queue_limit`` acquirers wait in FIFO order; the next would-be
  waiter is rejected immediately with
  :class:`~repro.service.errors.ServiceOverloaded` (the HTTP layer's
  429).  A waiter whose per-request deadline elapses is failed with
  :class:`~repro.service.errors.DeadlineExceeded` and leaves the queue.
* **Draining** — :meth:`retire` closes the idle sessions, fails the
  queued waiters, and marks the pool draining: checked-out sessions
  finish their current request and are closed on :meth:`release`
  instead of being re-pooled.  Because each session's worker pool
  holds one reference on the program's shared plane, the ``/dev/shm``
  segment survives exactly until the last live session closes.  When
  that last close is done the pool calls the retirer's ``on_drained``
  hook; the :class:`~repro.service.registry.ProgramRegistry` uses it to
  stop tracking the evicted pool.

The pool is event-loop affine: every method must run on the service's
loop (session *work* runs on executor threads; checkout bookkeeping
does not block).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Optional

from ..api import RenderSession, SceneProgram, SessionOptions
from .errors import DeadlineExceeded, ServiceOverloaded

__all__ = ["SessionPool"]


class SessionPool:
    """A bounded, lazily grown pool of warm sessions for one program.

    Args:
        program: The compiled :class:`~repro.api.SceneProgram` every
            pooled session serves.
        options: The :class:`~repro.api.SessionOptions` each session is
            provisioned with.
        max_sessions: Upper bound on concurrently live sessions.
        queue_limit: Maximum acquirers allowed to wait for a session;
            ``0`` disables queueing (immediate rejection when busy).
        label: Name used in error messages (defaults to the program's).
    """

    def __init__(
        self,
        program: SceneProgram,
        options: Optional[SessionOptions] = None,
        *,
        max_sessions: int = 2,
        queue_limit: int = 8,
        label: Optional[str] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        self.program = program
        self.options = options if options is not None else SessionOptions()
        self.max_sessions = max_sessions
        self.queue_limit = queue_limit
        self.label = label if label is not None else program.name
        self._idle: list[RenderSession] = []
        self._all: list[RenderSession] = []
        self._in_use = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._draining = False
        self._on_drained: Optional[Callable[[], None]] = None
        # Admission counters surfaced by /stats.
        self.acquired = 0
        self.rejected_queue_full = 0
        self.rejected_deadline = 0

    # -- introspection -----------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`retire` ran; acquires are refused."""
        return self._draining

    @property
    def in_use(self) -> int:
        """Sessions currently checked out."""
        return self._in_use

    @property
    def empty(self) -> bool:
        """True when no session is checked out."""
        return self._in_use == 0

    def stats(self) -> dict:
        """Pool occupancy and admission counters (the /stats payload)."""
        return {
            "sessions": len(self._all),
            "idle": len(self._idle),
            "in_use": self._in_use,
            "queued": len(self._waiters),
            "max_sessions": self.max_sessions,
            "queue_limit": self.queue_limit,
            "draining": self._draining,
            "acquired": self.acquired,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_deadline": self.rejected_deadline,
        }

    # -- checkout ----------------------------------------------------------

    async def acquire(self, timeout: Optional[float] = None) -> RenderSession:
        """Check a session out, waiting at most *timeout* seconds.

        Raises:
            ServiceOverloaded: every session busy and the wait queue
                full (or the pool is draining after eviction).
            DeadlineExceeded: *timeout* elapsed while queued.
        """
        if self._draining:
            raise ServiceOverloaded(
                f"scene {self.label!r} was evicted and is draining; retry",
                retry_after=0.1,
            )
        if self._idle:
            session = self._idle.pop()
            self._in_use += 1
            self.acquired += 1
            return session
        if len(self._all) < self.max_sessions:
            session = RenderSession(self.program, self.options)
            self._all.append(session)
            self._in_use += 1
            self.acquired += 1
            return session
        if len(self._waiters) >= self.queue_limit:
            self.rejected_queue_full += 1
            raise ServiceOverloaded(
                f"scene {self.label!r} is at capacity: "
                f"{self.max_sessions} sessions busy, "
                f"{len(self._waiters)} queued (limit {self.queue_limit})",
                retry_after=1.0,
            )
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            session = await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            self._discard_waiter(fut)
            self.rejected_deadline += 1
            raise DeadlineExceeded(
                f"deadline elapsed after {timeout:.3f}s waiting for a "
                f"{self.label!r} session"
            ) from None
        except asyncio.CancelledError:
            self._discard_waiter(fut)
            raise
        self.acquired += 1
        return session

    def _discard_waiter(self, fut: asyncio.Future) -> None:
        """Drop a dead waiter; re-pool a session it was handed anyway.

        ``wait_for`` cancels the future on timeout, but a racing
        :meth:`release` may already have fulfilled it — that session
        must not strand, so it goes straight back through the normal
        release path.
        """
        try:
            self._waiters.remove(fut)
        except ValueError:
            pass
        if fut.done() and not fut.cancelled() and fut.exception() is None:
            # The handoff in release() already counted the session as
            # in-use on our behalf; re-releasing rebalances the books.
            session = fut.result()
            asyncio.get_running_loop().create_task(self.release(session))

    # -- return ------------------------------------------------------------

    async def release(self, session: RenderSession) -> None:
        """Return a checked-out session; hands off, re-pools, or closes.

        On a draining pool the session is closed instead (on an
        executor thread — closing joins worker processes), and its
        worker pool releases its plane reference; the last such release
        unlinks the program's segment.
        """
        self._in_use -= 1
        if self._draining:
            await self._close_session(session)
            self._check_drained()
            return
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                self._in_use += 1
                fut.set_result(session)
                return
        self._idle.append(session)

    async def _close_session(self, session: RenderSession) -> None:
        # The session leaves ``_all`` only once closed, so an empty
        # ``_all`` on a draining pool means every plane reference is back.
        await asyncio.get_running_loop().run_in_executor(None, session.close)
        if session in self._all:
            self._all.remove(session)

    def _check_drained(self) -> None:
        """Run the retirer's hook once the last session has closed."""
        if self._draining and not self._all and self._on_drained is not None:
            on_drained, self._on_drained = self._on_drained, None
            on_drained()

    # -- teardown ----------------------------------------------------------

    async def retire(
        self,
        force: bool = False,
        on_drained: Optional[Callable[[], None]] = None,
    ) -> None:
        """Stop admitting, fail waiters, close idle (all, when *force*).

        The graceful mode (registry eviction) leaves checked-out
        sessions to finish their in-flight request; they are closed on
        release, and *on_drained* runs once the last of them has closed
        (before this returns, when none is checked out).  ``force=True``
        (final service shutdown, after the executor has drained so
        nothing is mid-trace) closes every session the pool ever
        created, idempotently.
        """
        self._draining = True
        self._on_drained = on_drained
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_exception(
                    ServiceOverloaded(
                        f"scene {self.label!r} was evicted while queued; retry",
                        retry_after=0.1,
                    )
                )
        idle, self._idle = self._idle, []
        for session in idle:
            await self._close_session(session)
        if force:
            remaining, self._all = list(self._all), []
            loop = asyncio.get_running_loop()
            for session in remaining:
                await loop.run_in_executor(None, session.close)
            self._in_use = 0
        self._check_drained()
