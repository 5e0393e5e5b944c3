"""Chapter 2/3 — baseline comparisons Photon is motivated against.

Three published contrasts, measured on the same Cornell box:

1. *Ray tracing is view-dependent*: Whitted must re-render per
   viewpoint, Photon re-views a stored answer (cost ratio printed).
2. *Radiosity is tightly coupled*: the hierarchical element/link graph
   resists partitioning — a large fraction of links cross any balanced
   cut, while Photon's photons are independent.
3. *Density Estimation stores ray histories*: its hit file is O(n) in
   photons; Photon's forest is the distilled histogram, and its
   parallel density phase is capped by the busiest surface.
"""

import time

from repro.core import Camera, RadianceField, SimulationConfig
from repro.core.viewing import render
from repro.geometry import Vec3
from repro.paper.densityestimation import density_phase_speedup, run_density_estimation
from repro.paper.perf import format_table
from repro.paper.radiosity import HierarchicalConfig, solve_hierarchical
from repro.paper.raytrace import WhittedConfig, render_whitted
from repro.paper.scalar import run_scalar
from repro.scenes import CORNELL_DEFAULT_CAMERA

N_PHOTONS = 4000


def test_view_dependence_cost(scenes, benchmark):
    """Whitted pays full cost per viewpoint; Photon only the view pass."""
    scene = scenes["cornell-box"]
    cam_a = Camera(width=24, height=18, **CORNELL_DEFAULT_CAMERA)
    cam_b = Camera(
        position=Vec3(0.4, 1.4, 3.6),
        look_at=Vec3(1.2, 0.8, 0.4),
        width=24,
        height=18,
    )

    result = benchmark.pedantic(
        lambda: run_scalar(scene, SimulationConfig(n_photons=N_PHOTONS)),
        rounds=1,
        iterations=1,
    )
    field = RadianceField(scene, result.forest)

    t0 = time.perf_counter()
    render(scene, field, cam_a)
    t_view_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    render(scene, field, cam_b)
    t_view_b = time.perf_counter() - t0

    t0 = time.perf_counter()
    render_whitted(scene, cam_a, WhittedConfig())
    t_whitted_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    render_whitted(scene, cam_b, WhittedConfig())
    t_whitted_b = time.perf_counter() - t0

    print("\nChapter 2 — cost of a second viewpoint (seconds)")
    print(
        format_table(
            ["method", "viewpoint A", "viewpoint B", "simulation reused?"],
            [
                ["Photon (view pass only)", f"{t_view_a:.3f}", f"{t_view_b:.3f}", "yes"],
                ["Whitted (full re-render)", f"{t_whitted_a:.3f}", f"{t_whitted_b:.3f}", "no"],
            ],
        )
    )
    # Photon's second viewpoint costs no new simulation; Whitted's cost
    # repeats in full.  (Both view passes are the same order; the point
    # is the absent re-simulation.)
    assert t_view_b < t_view_a * 3 + 0.5


def test_radiosity_coupling(scenes, benchmark):
    """Fraction of hierarchical-radiosity links crossing a balanced
    element partition — the coupling that doomed parallel radiosity."""
    scene = scenes["cornell-box"]
    solution = benchmark.pedantic(
        solve_hierarchical,
        args=(scene,),
        kwargs={"config": HierarchicalConfig(f_eps=0.2, a_min=0.3, visibility_samples=2)},
        rounds=1,
        iterations=1,
    )

    # Balanced two-way partition of elements by index; count cross links.
    leaves = [leaf for root in solution.roots for leaf in root.leaves()]
    side = {id(leaf): i % 2 for i, leaf in enumerate(leaves)}
    cross = 0
    total = 0
    for root in solution.roots:
        stack = [root]
        while stack:
            el = stack.pop()
            stack.extend(el.children)
            for src, _f in el.links:
                total += 1
                if side.get(id(el), 0) != side.get(id(src), 1):
                    cross += 1
    fraction = cross / max(total, 1)
    print("\nChapter 2 — hierarchical radiosity coupling")
    print(
        format_table(
            ["metric", "value"],
            [
                ["elements", solution.elements],
                ["links", solution.links],
                ["links crossing a balanced cut", f"{fraction:.0%}"],
                ["iterations to converge", solution.iterations],
            ],
        )
    )
    assert solution.converged
    # Heavily coupled: a third or more of interactions cross any cut,
    # versus zero coupling between Photon's photons.
    assert fraction > 0.3


def test_density_estimation_contrast(scenes, benchmark):
    scene = scenes["cornell-box"]
    de = benchmark.pedantic(
        run_density_estimation,
        args=(scene, N_PHOTONS),
        kwargs={"seed": 3},
        rounds=1,
        iterations=1,
    )
    photon = run_scalar(scene, SimulationConfig(n_photons=N_PHOTONS, seed=3))

    tracing_speedup = 15.0  # embarrassingly parallel phase (published ~15/16)
    density_speedup = density_phase_speedup(de.hits_per_patch, 16)
    print("\nChapter 3 — Density Estimation vs Photon")
    print(
        format_table(
            ["metric", "Density Estimation", "Photon"],
            [
                ["storage bytes", f"{de.hit_bytes:,}", f"{photon.forest.memory_bytes():,}"],
                ["storage growth", "O(photons)", "sub-linear (Fig 5.4)"],
                ["16-proc phase-2 speedup", f"{density_speedup:.1f}", "n/a (no phase 2)"],
            ],
        )
    )
    # The distilled histogram beats the ray-history file...
    assert photon.forest.memory_bytes() < de.hit_bytes
    # ...and the density phase is the published bottleneck (<< 16).
    assert density_speedup < tracing_speedup
