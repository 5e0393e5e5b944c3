"""Discrete-event speed traces: the x-axes of Figures 5.6-5.15.

The paper presents "the full speedup picture as a function of execution
time": each simulation is a sequence of photon batches, the per-batch
photons-per-second is plotted against cumulative time, and traces for
different processor counts overlay to reveal speedup.  This module
generates those traces deterministically from a platform cost model and
a measured scene profile, driving the same adaptive batch-size
controller the real code uses (which is also how Table 5.3 falls out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .batch import AdaptiveBatchController
from .machine import MachineSpec
from .workload import SceneProfile

__all__ = ["SpeedSample", "SpeedTrace", "simulate_trace", "trace_family"]


@dataclass(frozen=True)
class SpeedSample:
    """One point of a speed-vs-time trace.

    Attributes:
        time: Simulated seconds since program start (end of the batch).
        rate: Photons per second over the batch, summed across ranks.
        cumulative_photons: Total photons completed by *time*.
    """

    time: float
    rate: float
    cumulative_photons: int


@dataclass
class SpeedTrace:
    """A full execution trace for one (platform, scene, ranks) triple."""

    platform: str
    scene: str
    ranks: int
    samples: list[SpeedSample] = field(default_factory=list)

    def final_rate(self) -> float:
        """Rate of the last batch (the long-run plateau)."""
        if not self.samples:
            return 0.0
        return self.samples[-1].rate

    def rate_at(self, time: float) -> float:
        """Rate of the batch in flight at *time* (0 before the first point).

        The paper's fixed-time speedup reads traces exactly this way:
        "one can interpolate fixed-time speedup by examining the graph
        values at a set time."
        """
        rate = 0.0
        for sample in self.samples:
            if sample.time <= time:
                rate = sample.rate
            else:
                break
        return rate

    def photons_within(self, time: float) -> int:
        """Photons completed by *time* (Fig. 5.16's fixed-time budgets)."""
        done = 0
        for sample in self.samples:
            if sample.time <= time:
                done = sample.cumulative_photons
            else:
                break
        return done


def simulate_trace(
    machine: MachineSpec,
    profile: SceneProfile,
    ranks: int,
    *,
    duration_s: float = 1000.0,
    max_batches: int = 4000,
    imbalance: float = 1.03,
    pilot_photons: int = 2000,
    controller: Optional[AdaptiveBatchController] = None,
) -> SpeedTrace:
    """Simulate one execution trace.

    Args:
        machine: Platform cost model.
        profile: Measured scene statistics.
        ranks: Processor count (1 = the best serial version: no pilot
            phase, no communication, matching the paper's insistence on
            comparing against real serial code).
        duration_s: Simulated run length.
        max_batches: Hard stop for pathological parameter choices.
        imbalance: Compute-phase stretch from residual load imbalance
            (feed the measured ``load_imbalance`` of a real assignment;
            1.03 is the Best-Fit typical, ~1.5+ for naive).
        pilot_photons: Photons of the redundant balancing phase.
        controller: Batch-size controller; a fresh paper-default one if
            omitted.

    Raises:
        ValueError: for ranks outside [1, machine.max_ranks] or a
            duration that is not a positive finite number.
    """
    if not 1 <= ranks <= machine.max_ranks:
        raise ValueError(
            f"{machine.name} supports 1..{machine.max_ranks} ranks, got {ranks}"
        )
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
    if imbalance < 1.0:
        raise ValueError("imbalance factor cannot be below 1.0")
    controller = controller or AdaptiveBatchController()

    trace = SpeedTrace(platform=machine.name, scene=profile.name, ranks=ranks)
    t = 0.0
    photons = 0
    if ranks > 1:
        t += machine.startup_seconds(ranks, pilot_photons, profile)

    base_photon_s = machine.photon_seconds(profile)
    contention = machine.contention_factor(profile, ranks)

    for _ in range(max_batches):
        if t >= duration_s:
            break
        batch = controller.next_size()
        cache = machine.cache_factor(profile, ranks, photons)
        photon_s = base_photon_s * contention / cache
        compute = batch * photon_s * (imbalance if ranks > 1 else 1.0)
        events_forwarded = (
            batch * profile.events_per_photon * (ranks - 1) / ranks
            if ranks > 1
            else 0.0
        )
        comm = machine.batch_comm_seconds(ranks, events_forwarded)
        wall = compute + comm
        t += wall
        photons += batch * ranks
        rate = batch * ranks / wall
        controller.observe(rate)
        trace.samples.append(SpeedSample(time=t, rate=rate, cumulative_photons=photons))
    return trace


def trace_family(
    machine: MachineSpec,
    profile: SceneProfile,
    rank_counts: list[int],
    **kwargs,
) -> dict[int, SpeedTrace]:
    """Traces for several processor counts (one published figure)."""
    return {
        ranks: simulate_trace(machine, profile, ranks, **kwargs)
        for ranks in rank_counts
    }
