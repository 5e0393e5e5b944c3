"""Ablation — adaptive batch sizing vs fixed batch sizes.

Paper: "If batches are too small, most of the communication time will be
spent in latency ... overly large batches may spend too much time in
transmission."  We measure simulated time-to-N-photons on the Indy
cluster model for fixed sizes spanning the spectrum and for the adaptive
controller, which must land near the best fixed choice without being
told where the optimum is.
"""

from repro.paper.cluster.batch import AdaptiveBatchController
from repro.paper.cluster import INDY_CLUSTER, simulate_trace
from repro.paper.perf import format_table

TARGET_PHOTONS = 400_000
RANKS = 8
FIXED_SIZES = [100, 500, 2000, 8000, 32000]


class _FixedController:
    """Drop-in controller that never changes size."""

    def __init__(self, size: int) -> None:
        self._size = size
        self.history = []

    def next_size(self) -> int:
        return self._size

    def observe(self, speed: float) -> None:
        pass


def time_to_target(profile, controller) -> float:
    trace = simulate_trace(
        INDY_CLUSTER,
        profile,
        RANKS,
        duration_s=10_000.0,
        controller=controller,
        max_batches=100_000,
    )
    for sample in trace.samples:
        if sample.cumulative_photons >= TARGET_PHOTONS:
            return sample.time
    raise AssertionError("trace too short for the photon target")


def run_sweep(profile):
    times = {}
    for size in FIXED_SIZES:
        times[f"fixed {size}"] = time_to_target(profile, _FixedController(size))
    times["adaptive"] = time_to_target(profile, AdaptiveBatchController())
    return times


def test_adaptive_near_best_fixed(profiles, benchmark):
    profile = profiles["harpsichord-room"]
    times = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)

    rows = [[name, f"{t:.1f}s"] for name, t in times.items()]
    print(f"\nAblation — time to {TARGET_PHOTONS:,} photons (Indy model, 8 ranks)")
    print(format_table(["batch policy", "simulated time"], rows))

    fixed_times = [t for name, t in times.items() if name.startswith("fixed")]
    best_fixed = min(fixed_times)
    worst_fixed = max(fixed_times)

    # The fixed sizes really do span a meaningful optimum.
    assert worst_fixed > 1.2 * best_fixed
    # Adaptive lands within 15% of the best fixed size, unsupervised.
    assert times["adaptive"] <= best_fixed * 1.15
