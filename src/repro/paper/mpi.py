"""An in-process message-passing substrate with an mpi4py-style API.

The paper chose MPI "for the greatest flexibility and portability"; this
module preserves that interface so the distributed Photon driver reads
like textbook mpi4py code (lowercase object methods: ``send``/``recv``/
``alltoall``/``bcast``/``gather``/``barrier``).  Ranks run as real Python
threads with blocking mailbox queues, so the blocking semantics, deadlock
behaviour, and message ordering of a per-pair FIFO MPI are faithfully
exercised — only the transport is in-process.  Wall-clock performance is
*not* modelled here (Python's GIL would make it meaningless); the
discrete-event cost models in :mod:`repro.paper.cluster` consume the message
accounting this layer records instead.

Substitution note (``mpi`` is interface-gated; see the ``repro.paper``
row of docs/ARCHITECTURE.md): on a machine with real MPI, the driver in
:mod:`repro.paper.distributed` runs unchanged against ``mpi4py.MPI.
COMM_WORLD`` because only this API subset is used.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = ["SimComm", "CommStats", "run_parallel", "ANY_SOURCE"]

#: Wildcard source for :meth:`SimComm.recv`, mirroring MPI.ANY_SOURCE.
ANY_SOURCE = -1


@dataclass
class CommStats:
    """Per-rank message accounting consumed by the cluster cost models.

    Attributes:
        messages_sent: Point-to-point sends (collectives decompose into
            their constituent sends).
        payload_items: Total items shipped (for list payloads, the list
            length; 1 otherwise).  The distributed Photon driver ships
            photon tally events, so this counts photons forwarded —
            exactly the quantity Table 5.2 audits.
        barriers: Barrier entries.
    """

    messages_sent: int = 0
    payload_items: int = 0
    barriers: int = 0

    def record_send(self, payload: Any) -> None:
        """Account one outgoing message and its payload size."""
        self.messages_sent += 1
        if isinstance(payload, (list, tuple)):
            self.payload_items += len(payload)
        else:
            self.payload_items += 1


class _World:
    """Shared state of one communicator group."""

    def __init__(self, size: int) -> None:
        self.size = size
        # mailboxes[dest][src] keeps per-pair FIFO ordering like MPI.
        self.mailboxes: list[dict[int, queue.Queue]] = [
            {src: queue.Queue() for src in range(size)} for _ in range(size)
        ]
        self.barrier = threading.Barrier(size)
        self.bcast_slots: list[Any] = [None] * size
        self.gather_slots: list[list[Any]] = [[None] * size for _ in range(size)]


class SimComm:
    """One rank's endpoint of the simulated communicator.

    Construct the full group with :func:`SimComm.world` and hand one
    endpoint to each rank.
    """

    def __init__(self, world: _World, rank: int) -> None:
        self._world = world
        self._rank = rank
        self.stats = CommStats()

    # -- mpi4py-compatible surface --------------------------------------------

    def Get_rank(self) -> int:
        """This endpoint's rank (mpi4py spelling)."""
        return self._rank

    def Get_size(self) -> int:
        """Communicator size (mpi4py spelling)."""
        return self._world.size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @classmethod
    def world(cls, size: int) -> list["SimComm"]:
        """Create a communicator group of *size* endpoints."""
        if size < 1:
            raise ValueError("communicator size must be positive")
        w = _World(size)
        return [cls(w, rank) for rank in range(size)]

    # -- point-to-point ----------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-semantics send (buffers internally, never deadlocks)."""
        if not 0 <= dest < self._world.size:
            raise ValueError(f"invalid destination rank {dest}")
        self.stats.record_send(obj)
        self._world.mailboxes[dest][self._rank].put((tag, obj))

    def recv(self, source: int = ANY_SOURCE, tag: int = 0, timeout: float = 60.0) -> Any:
        """Blocking receive.

        Args:
            source: Sending rank, or :data:`ANY_SOURCE` to poll all.
            tag: Must match the sender's tag (mismatch raises — in this
                controlled setting a tag mismatch is always a bug).
            timeout: Safety net so test deadlocks fail fast instead of
                hanging the suite.

        Raises:
            TimeoutError: when nothing arrives in *timeout* seconds.
            ValueError: on tag mismatch.
        """
        if source == ANY_SOURCE:
            # Round-robin poll of the per-source FIFOs.
            import time

            deadline = time.monotonic() + timeout
            while True:
                for src in range(self._world.size):
                    q = self._world.mailboxes[self._rank][src]
                    try:
                        got_tag, obj = q.get_nowait()
                    except queue.Empty:
                        continue
                    if got_tag != tag:
                        raise ValueError(
                            f"tag mismatch: expected {tag}, got {got_tag}"
                        )
                    return obj
                if time.monotonic() > deadline:
                    raise TimeoutError(f"rank {self._rank}: recv timed out")
                time.sleep(0.0001)
        q = self._world.mailboxes[self._rank][source]
        try:
            got_tag, obj = q.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"rank {self._rank}: recv from {source} timed out"
            ) from None
        if got_tag != tag:
            raise ValueError(f"tag mismatch: expected {tag}, got {got_tag}")
        return obj

    # -- collectives -----------------------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self.stats.barriers += 1
        self._world.barrier.wait()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from *root*; every rank returns the root's object."""
        if self._rank == root:
            self._world.bcast_slots[root] = obj
            if self._world.size > 1:
                self.stats.messages_sent += self._world.size - 1
        self._world.barrier.wait()
        result = self._world.bcast_slots[root]
        self._world.barrier.wait()  # keep slot stable until all have read
        return result

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        """Gather one object per rank at *root* (None elsewhere)."""
        self._world.gather_slots[root][self._rank] = obj
        if self._rank != root:
            self.stats.record_send(obj)
        self._world.barrier.wait()
        result = None
        if self._rank == root:
            result = list(self._world.gather_slots[root])
        self._world.barrier.wait()
        return result

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank receives the list of all ranks' objects."""
        self._world.gather_slots[0][self._rank] = obj
        self.stats.record_send(obj)
        self._world.barrier.wait()
        result = list(self._world.gather_slots[0])
        self._world.barrier.wait()
        return result

    def alltoall(self, send_list: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all: element *i* of *send_list* goes to rank *i*.

        This is the communication pattern of Figure 5.3 ("an all-to-all
        communication period following each particle tracing phase").
        """
        if len(send_list) != self._world.size:
            raise ValueError(
                f"alltoall needs exactly {self._world.size} elements, "
                f"got {len(send_list)}"
            )
        for dest, payload in enumerate(send_list):
            if dest == self._rank:
                continue
            self.send(payload, dest, tag=7)
        received: list[Any] = [None] * self._world.size
        received[self._rank] = send_list[self._rank]
        for src in range(self._world.size):
            if src == self._rank:
                continue
            received[src] = self.recv(source=src, tag=7)
        return received

    def allreduce_sum(self, value: float) -> float:
        """Sum across ranks (enough for the drivers' needs)."""
        return sum(self.allgather(value))

    def __repr__(self) -> str:
        return f"SimComm(rank={self._rank}, size={self._world.size})"


def run_parallel(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``fn(comm, rank, *args)`` on *size* ranks and collect returns.

    Ranks execute as daemon threads; the first exception on any rank is
    re-raised in the caller after all threads finish or the timeout
    expires.

    Returns:
        Per-rank return values, index = rank.
    """
    comms = SimComm.world(size)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], rank, *args)
        except BaseException as exc:  # noqa: BLE001 — repropagated below
            errors.append((rank, exc))

    threads = [
        threading.Thread(target=runner, args=(rank,), daemon=True)
        for rank in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            raise TimeoutError("parallel run did not finish within the timeout")
    if errors:
        rank, exc = errors[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results
