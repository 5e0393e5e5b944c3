"""Flat-octree traversal throughput: the array-encoded walk must beat
PR 1's per-leaf Python loop where it matters.

Records photons/sec for the vector engine under each intersection
accelerator — ``flat`` (the level-synchronous pair walk: one slab-test
call and one patch-pair kernel call per tree level), ``octree`` (the
pruned per-leaf loop), ``linear`` (dense scan) — on all three
dissertation scenes, plus slab/patch test counters that explain *why*
the flat walk wins: ``(lane, node)`` pairs leave the frontier as
subtrees miss, so the computer-lab scene (3.4k leaves) does ~40x fewer
slab tests than the leaf loop, and it does them in O(tree depth) NumPy
calls instead of one per leaf.

Acceptance floor: on the computer-lab scene (the largest) the flat walk
must stay ``>= FLAT_VS_OCTREE_FLOOR x`` the pruned-leaf walk's
photons/sec.  Measured on the 2-vCPU reference container: ~28x (43k vs
1.5k photons/sec; see the printed table for the honest current ratio).
"""

from __future__ import annotations

import time

import pytest

from repro.core.vectorized import VectorEngine
from repro.perf import format_table
from repro.scenes import computer_lab

SEED = 0x1234ABCD330E

#: Photon budgets sized so the whole matrix stays affordable on one core.
BUDGETS = {"cornell-box": 20_000, "harpsichord-room": 8_000, "computer-lab": 3_000}

#: The flat walk must deliver at least this multiple of the pruned-leaf
#: walk's photons/sec on the computer-lab scene.  Measured ~28x on the
#: reference container; 12 leaves 2x headroom for noisy CI hosts while
#: failing loudly if the walk ever regresses to per-node or per-leaf
#: NumPy dispatch (a per-node stack walk measured ~2.2x here).
FLAT_VS_OCTREE_FLOOR = 12.0

ACCELS = ("linear", "octree", "flat")


def _rate(scene, accel: str, photons: int) -> tuple[float, VectorEngine]:
    engine = VectorEngine(scene, batch_size=4096, accel=accel)
    t0 = time.perf_counter()
    engine.trace_range(SEED, 0, photons)
    elapsed = time.perf_counter() - t0
    return photons / elapsed, engine


@pytest.fixture(scope="module")
def accel_rates(request):
    """photons/sec and test counters per (scene, accel)."""
    scenes = {
        "cornell-box": request.getfixturevalue("cornell"),
        "harpsichord-room": request.getfixturevalue("harpsichord"),
        "computer-lab": computer_lab(),
    }
    out = {}
    for name, scene in scenes.items():
        budget = BUDGETS[name]
        for accel in ACCELS:
            rate, engine = _rate(scene, accel, budget)
            out[name, accel] = (rate, engine.box_tests, engine.patch_tests)
    return out


def test_flat_beats_leaf_loop_on_computer_lab(accel_rates):
    """The tentpole acceptance number: no regression (and in practice a
    solid win) for flat vs the PR 1 pruned walk on the largest scene."""
    rows = []
    for (name, accel), (rate, box, patch) in sorted(accel_rates.items()):
        rows.append([name, accel, f"{rate:,.0f}", f"{box:,}", f"{patch:,}"])
    print()
    print("Vector-engine intersection accelerators (photons/sec):")
    print(format_table(
        ["scene", "accel", "photons/sec", "slab tests", "patch tests"], rows
    ))
    flat = accel_rates["computer-lab", "flat"][0]
    leafy = accel_rates["computer-lab", "octree"][0]
    ratio = flat / leafy
    print(f"computer-lab flat vs octree: {ratio:.2f}x")
    assert ratio >= FLAT_VS_OCTREE_FLOOR, (
        f"flat walk only {ratio:.2f}x the pruned-leaf walk on computer-lab "
        f"— below the {FLAT_VS_OCTREE_FLOOR}x floor"
    )


def test_flat_does_massively_fewer_slab_tests(accel_rates):
    """The mechanism behind the speedup, pinned structurally: the flat
    walk's lane x node slab count must be far below the leaf loop's
    lane x leaf count on the big scene."""
    flat_box = accel_rates["computer-lab", "flat"][1]
    leaf_box = accel_rates["computer-lab", "octree"][1]
    assert flat_box * 10 < leaf_box, (
        f"flat walk slab tests ({flat_box:,}) not an order of magnitude "
        f"below the leaf loop's ({leaf_box:,})"
    )


def test_auto_picks_flat_for_large_scenes(accel_rates):
    """auto must route the big scene onto the flat walk (and the answer
    is accel-independent, so this is purely a speed decision)."""
    engine = VectorEngine(computer_lab())
    assert engine.accel == "flat"
