"""Ablation — cost of the polarization extension.

The dissertation adds polarization without discussing its overhead; this
bench measures it: Stokes transport adds Mueller-matrix algebra to every
specular bounce and a frame update to every reflection, so the relevant
question for adopters is photons/second with and without the extension.
"""

import time

from repro.core.simulator import MAX_BOUNCES
from repro.geometry import Ray
from repro.paper.octree import intersect
from repro.paper.perf import format_table
from repro.paper.physics import emit_photon, reflect
from repro.paper.polarization import PolarizedPhoton, polarized_reflect
from repro.rng import Lcg48
from repro.scenes import cornell_box

PHOTONS = 1500


def trace_plain(scene, seed: int) -> int:
    rng = Lcg48(seed)
    bounces = 0
    for _ in range(PHOTONS):
        record = emit_photon(scene, rng)
        photon = record.photon
        for _ in range(MAX_BOUNCES):
            hit = intersect(scene, Ray(photon.position, photon.direction, normalized=True))
            if hit is None:
                break
            result = reflect(photon, hit, rng)
            if result is None:
                break
            bounces += 1
            photon.advance_to(hit.point, result.direction)
    return bounces


def trace_polarized(scene, seed: int) -> int:
    rng = Lcg48(seed)
    bounces = 0
    for _ in range(PHOTONS):
        record = emit_photon(scene, rng)
        pp = PolarizedPhoton.from_photon(record.photon)
        for _ in range(MAX_BOUNCES):
            hit = intersect(
                scene, Ray(pp.photon.position, pp.photon.direction, normalized=True)
            )
            if hit is None:
                break
            out = polarized_reflect(pp, hit, rng)
            if out is None:
                break
            bounces += 1
            _, pp = out
    return bounces


def test_polarization_overhead(scenes, benchmark):
    scene = scenes["cornell-box"]

    t0 = time.perf_counter()
    plain_bounces = trace_plain(scene, seed=9)
    t_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    pol_bounces = benchmark.pedantic(
        trace_polarized, args=(scene, 9), rounds=1, iterations=1
    )
    t_pol = time.perf_counter() - t0

    overhead = t_pol / max(t_plain, 1e-9)
    print("\nAblation — polarization transport overhead (Cornell box)")
    print(
        format_table(
            ["variant", "time", "photons/s", "bounces"],
            [
                ["scalar (no Stokes)", f"{t_plain:.2f}s", f"{PHOTONS / t_plain:,.0f}", plain_bounces],
                ["polarized (Stokes)", f"{t_pol:.2f}s", f"{PHOTONS / t_pol:,.0f}", pol_bounces],
            ],
        )
    )
    print(f"overhead factor: {overhead:.2f}x")

    # Identical stream consumption => identical geometric paths.
    assert pol_bounces == plain_bounces
    # The extension must stay a bounded-constant overhead, not blow up.
    assert overhead < 5.0
