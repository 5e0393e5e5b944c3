"""Ablation — the 3-sigma split criterion.

Chapter 3: "Values less than three tend to split histogram bins more
often, thus decreasing discretization error but increasing storage
demands.  Increasing the splitting criterion beyond 3-sigma reduces
splitting, thus reducing storage demands, but also increasing
discretization error."  We sweep sigma over {1.5, 2, 3, 4.5} and measure
both sides of the trade on a real simulation + render.
"""

import numpy as np

from repro.core import Camera, RadianceField, SimulationConfig, SplitPolicy
from repro.core.viewing import render
from repro.geometry import Vec3
from repro.image import rmse
from repro.paper.perf import format_table
from repro.paper.scalar import run_scalar
from tests.conftest import build_mini_scene

SIGMAS = [1.5, 2.0, 3.0, 4.5]
PHOTONS = 5000


def run_sweep():
    scene = build_mini_scene()
    cam = Camera(Vec3(0.5, 0.5, 0.05), Vec3(0.5, 0.5, 1.0), width=14, height=10)
    # Reference: long run at the paper's sigma.
    ref = run_scalar(scene, SimulationConfig(n_photons=PHOTONS * 5, seed=77))
    ref_img = render(scene, RadianceField(scene, ref.forest), cam)

    results = {}
    for sigma in SIGMAS:
        cfg = SimulationConfig(
            n_photons=PHOTONS,
            seed=13,
            policy=SplitPolicy(threshold=sigma, min_count=16),
        )
        res = run_scalar(scene, cfg)
        img = render(scene, RadianceField(scene, res.forest), cam)
        results[sigma] = (res.forest.leaf_count, rmse(ref_img, img))
    return results


def test_split_sigma_tradeoff(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = [
        [sigma, leaves, f"{err:.4g}"] for sigma, (leaves, err) in results.items()
    ]
    print("\nAblation — split threshold vs storage and error")
    print(format_table(["sigma", "bins (storage)", "image RMSE"], rows))

    leaves = [results[s][0] for s in SIGMAS]
    # Storage falls monotonically as the criterion tightens.
    assert leaves == sorted(leaves, reverse=True)
    # The aggressive splitter uses several times the storage of 3-sigma.
    assert results[1.5][0] > 1.5 * results[3.0][0]
    # All settings converge to similar images at this photon count; the
    # paper's argument is storage economy, which the row above shows.
    errs = [results[s][1] for s in SIGMAS]
    assert max(errs) < 4 * max(min(errs), 1e-9)
