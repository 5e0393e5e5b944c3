"""Figure 5.4 — Memory Requirements for the Harpsichord Practice Room.

The published curve shows the bin forest building up quickly and then
growing sub-linearly with photons, staying one to two orders of
magnitude below the O(n) hit-point files of Density Estimation.  This
bench traces a real run, prints the growth curve, and checks both
properties.
"""

from repro.core import SimulationConfig, SplitPolicy
from repro.paper.densityestimation import HIT_RECORD_BYTES
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar_batches

PHOTONS = 6000
BATCH = 600


def run_growth(scene):
    cfg = SimulationConfig(
        n_photons=PHOTONS, policy=SplitPolicy(min_count=16), seed=17
    )
    curve = []
    for partial in run_scalar_batches(scene, cfg, BATCH):
        curve.append(
            (
                partial.forest.photons_emitted,
                partial.forest.total_tallies,
                partial.forest.memory_bytes(),
            )
        )
    return curve


def test_fig_5_4(scenes, benchmark):
    scene = scenes["harpsichord-room"]
    curve = benchmark.pedantic(run_growth, args=(scene,), rounds=1, iterations=1)

    rows = [
        [photons, tallies, f"{bytes_ / 1024:.1f} KB", f"{tallies * HIT_RECORD_BYTES / 1024:.1f} KB"]
        for photons, tallies, bytes_ in curve
    ]
    print("\nFigure 5.4 — Bin-forest memory vs photons (Harpsichord)")
    print(
        format_table(
            ["photons", "tallies", "forest bytes", "hit-file bytes (O(n))"], rows
        )
    )

    # Growth is monotone but decelerating: the second half of the run
    # adds fewer bytes than the first half (the published sub-linear
    # tail after the initial build-up).
    sizes = [bytes_ for _, _, bytes_ in curve]
    assert sizes == sorted(sizes)
    half = len(sizes) // 2
    first_half_growth = sizes[half - 1] - sizes[0]
    second_half_growth = sizes[-1] - sizes[half]
    assert second_half_growth < first_half_growth

    # The distilled histogram stays far below the O(n) ray-history file.
    final_photons, final_tallies, final_bytes = curve[-1]
    hit_file_bytes = final_tallies * HIT_RECORD_BYTES
    assert final_bytes < hit_file_bytes / 2
