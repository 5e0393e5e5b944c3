"""Speedup extraction from execution traces.

Chapter 5 defines speedup against "the best serial version of the
program (not the parallel version run on one processor)", read off the
speed-vs-time traces at a chosen instant (fixed-time speedup) or over a
fixed photon budget (fixed-size speedup).  Both readings are implemented
here against :class:`repro.paper.cluster.runner.SpeedTrace` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..cluster.runner import SpeedTrace

__all__ = [
    "fixed_time_speedup",
    "fixed_size_speedup",
    "SpeedupTable",
    "speedup_table",
]


def fixed_time_speedup(
    parallel: SpeedTrace, serial: SpeedTrace, at_time: float
) -> float:
    """Rate ratio parallel/serial at simulated time *at_time*.

    Returns 0.0 when the parallel trace has not produced its first
    sample yet (startup still in progress — the Indy cluster's shifted
    traces really do read as zero speedup early on).
    """
    if not (math.isfinite(at_time) and at_time > 0):
        raise ValueError(f"at_time must be positive and finite, got {at_time}")
    serial_rate = serial.rate_at(at_time)
    if serial_rate <= 0.0:
        # Before the serial code's own first batch: compare final rates
        # to avoid division by zero on absurdly small times.
        serial_rate = serial.samples[0].rate if serial.samples else 0.0
    if serial_rate <= 0.0:
        raise ValueError("serial trace is empty")
    return parallel.rate_at(at_time) / serial_rate


def _time_to_photons(trace: SpeedTrace, photons: int) -> float:
    """Simulated seconds until *photons* photons are complete (inf if never)."""
    for sample in trace.samples:
        if sample.cumulative_photons >= photons:
            return sample.time
    return float("inf")


def fixed_size_speedup(
    parallel: SpeedTrace, serial: SpeedTrace, photons: int
) -> float:
    """Time ratio serial/parallel to finish *photons* photons."""
    if photons <= 0:
        raise ValueError("photons must be positive")
    t_serial = _time_to_photons(serial, photons)
    t_parallel = _time_to_photons(parallel, photons)
    if t_serial == float("inf") or t_parallel == float("inf"):
        raise ValueError(
            "traces too short for the requested photon budget; extend duration_s"
        )
    return t_serial / t_parallel


@dataclass(frozen=True)
class SpeedupTable:
    """Speedups per rank count at a fixed reading point."""

    scene: str
    platform: str
    at_time: float
    speedups: Mapping[int, float]  # ranks -> speedup

    def monotone_nondecreasing(self, tolerance: float = 0.0) -> bool:
        """True when speedup never drops as ranks grow (within tolerance)."""
        ordered = sorted(self.speedups)
        return all(
            self.speedups[b] >= self.speedups[a] - tolerance
            for a, b in zip(ordered, ordered[1:])
        )


def speedup_table(
    traces: Mapping[int, SpeedTrace], at_time: float
) -> SpeedupTable:
    """Fixed-time speedups for a trace family keyed by rank count.

    The family must include ranks == 1 (the serial reference).
    """
    if 1 not in traces:
        raise ValueError("trace family must include the serial (ranks=1) trace")
    serial = traces[1]
    speedups = {
        ranks: fixed_time_speedup(trace, serial, at_time)
        for ranks, trace in traces.items()
    }
    sample = next(iter(traces.values()))
    return SpeedupTable(
        scene=sample.scene,
        platform=sample.platform,
        at_time=at_time,
        speedups=speedups,
    )
