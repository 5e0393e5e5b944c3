#!/usr/bin/env python
"""Architectural daylighting: the Harpsichord room's skylights.

The dissertation's motivating application is architectural rendering:
"Photon considers the sun as a source covering the scene and collimated
to a range of 0.5 degree ... This produces sharp shadows when the
occluding object is near the shadowed surface and fuzzy shadows when the
occluder is farther away."

This example simulates the Harpsichord Practice Room and measures the
penumbra width of two shadows on the floor — one cast by a nearby
occluder (a harpsichord leg) and one by the distant skylight frame — to
show the distance-dependent shadow softness that point-light renderers
(the Whitted baseline here) cannot produce.

Run:
    python examples/architectural_daylight.py [--photons 40000]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api import Camera, RenderSession, SimulateRequest
from repro.core import RadianceField
from repro.geometry import Ray, Vec3
from repro.image import save_radiance_ppm
from repro.paper.octree import intersect
from repro.paper.raytrace import WhittedConfig, render_whitted
from repro.scenes import HARPSICHORD_DEFAULT_CAMERA, harpsichord_room


def floor_irradiance_profile(scene, field, z: float, x_range, steps: int = 60):
    """Radiance leaving the floor straight up, sampled along a line."""
    profile = []
    x0, x1 = x_range
    for i in range(steps):
        x = x0 + (x1 - x0) * i / (steps - 1)
        hit = intersect(scene, Ray(Vec3(x, 1.0, z), Vec3(0.0, -1.0, 0.0)))
        if hit is None or hit.patch.name not in ("floor", "rug"):
            profile.append((x, 0.0))
            continue
        sample = field.sample(hit.patch.patch_id, hit.s, hit.t, Vec3(0, 1, 0))
        profile.append((x, sum(sample.rgb)))
    return profile


def edge_width(profile) -> float:
    """Width over which the profile climbs from 25% to 75% of its max."""
    values = [v for _, v in profile]
    peak = max(values)
    if peak <= 0:
        return 0.0
    lo = 0.25 * peak
    hi = 0.75 * peak
    x_lo = x_hi = None
    for x, v in profile:
        if x_lo is None and v >= lo:
            x_lo = x
        if x_hi is None and v >= hi:
            x_hi = x
    if x_lo is None or x_hi is None:
        return 0.0
    return abs(x_hi - x_lo)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, default=40_000)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    scene = harpsichord_room()
    print(f"scene: {scene.name} — {scene.defining_polygon_count} defining polygons")
    print("luminaires:")
    for lum in scene.luminaires:
        kind = (
            f"collimated {lum.beam_half_angle:.4f} rad"
            if lum.beam_half_angle is not None
            else "diffuse sky"
        )
        print(f"  {lum.patch.name:20s} power {lum.power:8.1f}  {kind}")

    session = RenderSession(scene)
    with session:
        result = session.simulate(SimulateRequest(n_photons=args.photons))
        field = RadianceField(scene, result.forest)
        print(
            f"\nsimulated {args.photons:,} photons; "
            f"{result.forest.leaf_count:,} bins; mean bounces {result.stats.mean_bounces:.2f}"
        )

        # Shadow-edge study: skylight pool edge on open floor (occluder =
        # skylight frame, ~2 m above) vs the harpsichord leg's shadow
        # (occluder a few cm above the floor).
        pool_profile = floor_irradiance_profile(scene, field, z=2.0, x_range=(0.2, 2.4))
        leg_profile = floor_irradiance_profile(scene, field, z=1.7, x_range=(1.45, 1.95))
        pool_edge = edge_width(pool_profile)
        leg_edge = edge_width(leg_profile)
        print(f"\nskylight pool edge width (distant occluder): {pool_edge:.3f} m (fuzzy)")
        print(f"harpsichord leg shadow edge (near occluder):  {leg_edge:.3f} m (sharp)")

        # The scene carries its default view; Photon image via the
        # session, Whitted comparison via the baseline renderer.
        camera = Camera(width=160, height=120, **HARPSICHORD_DEFAULT_CAMERA)
        save_radiance_ppm(
            session.render(result, camera), args.out_dir / "harpsichord_photon.ppm"
        )
    save_radiance_ppm(
        render_whitted(scene, camera, WhittedConfig()),
        args.out_dir / "harpsichord_whitted.ppm",
    )
    print(
        f"\nwrote {args.out_dir / 'harpsichord_photon.ppm'} (area sun, soft shadows)"
        f"\nwrote {args.out_dir / 'harpsichord_whitted.ppm'} (point lights, hard shadows)"
    )


if __name__ == "__main__":
    main()
