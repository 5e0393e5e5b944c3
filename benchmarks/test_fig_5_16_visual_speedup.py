"""Figure 5.16 — Visual Speedup.

The paper renders the Harpsichord room after fixed two-minute runs on
1/2/4/8 processors: "It is easy to see the improved quality due to
higher photon simulation counts."  We reproduce it quantitatively:

1. the platform model converts a fixed wall-clock budget into a photon
   budget per processor count;
2. a *real* simulation runs each budget;
3. image RMSE against a long-run reference falls monotonically with
   processor count.

The mini scene stands in for the Harpsichord room to keep the real
renders affordable; the mechanism (fixed time -> photons -> noise) is
scene-independent.
"""

import pytest

from repro.core import Camera, RadianceField, SimulationConfig
from repro.core.viewing import render
from repro.geometry import Vec3
from repro.image import rmse
from repro.paper.cluster import INDY_CLUSTER, profile_scene, trace_family
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar
from tests.conftest import build_mini_scene

FIXED_TIME = 120.0  # "2 minute run"
RANKS = [1, 2, 4, 8]
#: Scale the era photon budgets down to container-friendly sizes while
#: preserving their ratios (which is all the figure's trend needs).
BUDGET_SCALE = 0.004


def run_visual_speedup():
    scene = build_mini_scene()
    profile = profile_scene(scene, photons=200)
    families = trace_family(INDY_CLUSTER, profile, RANKS, duration_s=FIXED_TIME * 1.5)

    budgets = {
        ranks: max(int(families[ranks].photons_within(FIXED_TIME) * BUDGET_SCALE), 50)
        for ranks in RANKS
    }

    cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=16, height=12)
    reference = run_scalar(
        scene, SimulationConfig(n_photons=max(budgets.values()) * 6, seed=99)
    )
    ref_img = render(scene, RadianceField(scene, reference.forest), cam)

    errors = {}
    for ranks, budget in budgets.items():
        res = run_scalar(scene, SimulationConfig(n_photons=budget, seed=31))
        img = render(scene, RadianceField(scene, res.forest), cam)
        errors[ranks] = rmse(ref_img, img)
    return budgets, errors


def test_fig_5_16(benchmark):
    budgets, errors = benchmark.pedantic(run_visual_speedup, rounds=1, iterations=1)

    scale = max(errors.values())
    rows = [
        [r, budgets[r], f"{errors[r]:.4g}", f"{errors[r] / scale:.2f}"]
        for r in RANKS
    ]
    print(f"\nFigure 5.16 — Visual speedup ({FIXED_TIME:.0f}s fixed-time runs)")
    print(format_table(["processors", "photons in budget", "RMSE vs reference", "relative"], rows))

    # More processors -> more photons in the fixed time.
    assert budgets[8] > budgets[4] > budgets[2] > budgets[1]
    # ...and measurably less noise at the extremes of the sweep.
    assert errors[8] < errors[1]
    # The full trend holds at least weakly (allow MC wiggle in the middle).
    assert errors[8] <= errors[2] * 1.15
    assert errors[4] <= errors[1] * 1.15
