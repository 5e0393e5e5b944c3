"""Parameterised machine cost models.

A :class:`MachineSpec` turns abstract per-photon work (from a
:class:`repro.paper.cluster.workload.SceneProfile`) into seconds, and charges
the communication or memory-contention overheads that shape the paper's
speedup curves:

* **shared memory** — lock/memory contention grows with the processor
  count and with how *concentrated* the tally traffic is (a few hot bin
  trees serialise writers); large scenes spread traffic and scale
  better, exactly Figure 5.6-5.8's trend.
* **distributed memory** — per-batch all-to-all cost of
  ``latency + bytes/bandwidth`` per message, plus a buffered-copy term
  that is hidden by overlap at 2 ranks but not beyond (the SP-2 story
  for the 2 -> 4 processor dip), plus a startup phase (load balancing +
  geometry broadcast) that shifts the first trace point right on slow
  networks (the Indy cluster story).
* **cache bonus** — when a rank's share of the bin forest fits in cache
  but the whole forest does not, the per-photon rate improves (the
  superlinear 2-processor result on the Harpsichord room).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .workload import SceneProfile

__all__ = ["MachineSpec", "PER_EVENT_BYTES"]

#: Wire bytes per forwarded tally event.  The paper's density-estimation
#: discussion uses 100 bytes per photon record; our wire events
#: (unit id + 4 coordinates + band) pack comparably.
PER_EVENT_BYTES = 100


@dataclass(frozen=True)
class MachineSpec:
    """Cost parameters of one platform.

    Attributes:
        name: Platform label (appears on every trace).
        kind: 'shared' or 'distributed'.
        max_ranks: Processor count of the studied configuration.
        seconds_per_work_unit: Serial cost of one abstract work unit
            (octree node visit); calibrates absolute photons/second.
        contention_coeff: Shared memory — strength of the lock/memory
            contention term ``1 + coeff * (P - 1) * concentration``.
        latency_s: Distributed — per-message latency.
        bandwidth_bytes_s: Distributed — link bandwidth.
        copy_s_per_byte: Distributed — buffered-messaging memory-copy
            cost per byte, charged only when ``ranks > copy_hidden_ranks``
            (below that the copy overlaps with computation).
        copy_hidden_ranks: Rank count up to which the copy is hidden.
        congestion_buffer_bytes: Message size beyond which transport
            buffers overflow and delays grow quadratically ("overly
            large batches may spend too much time in transmission, due
            to large message sizes").  This is what gives the adaptive
            batch controller an optimum to oscillate around (Table 5.3).
        startup_s_per_rank: Fixed startup charged per rank (process
            launch, geometry replication).
        cache_bytes: Per-processor cache capacity for the bin forest.
        cache_bonus: Rate multiplier when a rank's forest share fits in
            cache but the serial forest does not.
    """

    name: str
    kind: Literal["shared", "distributed"]
    max_ranks: int
    seconds_per_work_unit: float
    contention_coeff: float = 0.0
    latency_s: float = 0.0
    bandwidth_bytes_s: float = float("inf")
    copy_s_per_byte: float = 0.0
    copy_hidden_ranks: int = 2
    congestion_buffer_bytes: float = float("inf")
    startup_s_per_rank: float = 0.0
    cache_bytes: float = float("inf")
    cache_bonus: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("shared", "distributed"):
            raise ValueError(f"unknown machine kind {self.kind!r}")
        if self.seconds_per_work_unit <= 0:
            raise ValueError("seconds_per_work_unit must be positive")
        if self.max_ranks < 1:
            raise ValueError("max_ranks must be positive")

    # -- computation ------------------------------------------------------------

    def photon_seconds(self, profile: SceneProfile) -> float:
        """Serial seconds to trace one photon of this scene."""
        return profile.work_per_photon() * self.seconds_per_work_unit

    def contention_factor(self, profile: SceneProfile, ranks: int) -> float:
        """Shared-memory slowdown multiplier (>= 1).

        Two workers collide when both are in the tally phase of their
        photon *and* touch the same hot bin tree, so the term scales
        with ``tally_share^2 * concentration`` — which reproduces the
        published ordering: the mirror-heavy Cornell box saturates near
        2x, the Harpsichord room near 3x, and the Computer Lab keeps
        scaling (Figures 5.6-5.8).
        """
        if self.kind != "shared" or ranks <= 1:
            return 1.0
        share = profile.tally_share()
        return 1.0 + self.contention_coeff * (ranks - 1) * (
            profile.concentration * share * share
        )

    def cache_factor(
        self, profile: SceneProfile, ranks: int, photons_so_far: int
    ) -> float:
        """Rate multiplier from per-rank working sets fitting in cache."""
        if self.cache_bonus <= 1.0:
            return 1.0
        total = profile.forest_bytes_at(max(photons_so_far, 1))
        if total <= self.cache_bytes:
            return 1.0  # fits even serially: no relative advantage
        if total / max(ranks, 1) <= self.cache_bytes:
            return self.cache_bonus
        return 1.0

    # -- communication ------------------------------------------------------------

    def batch_comm_seconds(
        self, ranks: int, events_forwarded_per_rank: float
    ) -> float:
        """All-to-all cost for one batch, per rank (distributed only).

        Each rank sends ``ranks - 1`` messages carrying its forwarded
        events split evenly; receives overlap with sends on a full-duplex
        link, so the send side bounds the phase.
        """
        if self.kind != "distributed" or ranks <= 1:
            return 0.0
        messages = ranks - 1
        bytes_per_message = (
            events_forwarded_per_rank * PER_EVENT_BYTES / max(messages, 1)
        )
        per_message = self.latency_s + bytes_per_message / self.bandwidth_bytes_s
        if self.congestion_buffer_bytes != float("inf"):
            overflow = bytes_per_message / self.congestion_buffer_bytes
            per_message += self.latency_s * overflow * overflow
        if ranks > self.copy_hidden_ranks:
            # Buffered asynchronous messaging: an extra copy on both ends
            # that can no longer be overlapped ("adds an extra memory copy
            # and buffer management overhead to each message").
            per_message += 2.0 * bytes_per_message * self.copy_s_per_byte + self.latency_s
        return messages * per_message

    def startup_seconds(self, ranks: int, pilot_photons: int, profile: SceneProfile) -> float:
        """Launch cost before the first batch.

        Distributed runs also pay the redundant pilot-trace of the load
        balancing phase; the shared-memory variant of Figure 5.2 has no
        balancing phase (the forest is shared), so only thread startup
        is charged.
        """
        launch = self.startup_s_per_rank * ranks
        if self.kind != "distributed":
            return launch
        return pilot_photons * self.photon_seconds(profile) + launch
