#!/usr/bin/env python
"""Polarization and fluorescence: the chapter-6 extensions in action.

Two small studies on the paper's future-work features:

1. **Polarization** — trace photons with Stokes-vector transport through
   the Cornell box; light that has bounced off the mirror arrives
   partially polarized (the paper: "polarization will play a large role
   in the realism of a rendered scene"), diffusely scattered light does
   not.
2. **Fluorescence** — illuminate a black-lit poster room with a
   blue-only lamp; the fluorescent poster re-emits green, so the answer
   contains green tallies a band-accounting without fluorescence could
   never produce.

Run:
    python examples/polarization_study.py [--photons 3000]
"""

from __future__ import annotations

import argparse

from repro.api import RenderSession, SimulateRequest
from repro.core.fluorescence import FluorescenceSpec
from repro.core.simulator import MAX_BOUNCES
from repro.geometry import Ray, Scene, Vec3, axis_rect, matte
from repro.geometry.material import Material, RGB, emitter
from repro.paper.octree import intersect
from repro.paper.perf import format_table
from repro.paper.physics import emit_photon, fluorescent_reflect
from repro.paper.polarization import PolarizedPhoton, polarized_reflect
from repro.rng import Lcg48
from repro.scenes import cornell_box


def polarization_study(photons: int) -> None:
    scene = cornell_box()
    rng = Lcg48(11)
    arrivals: dict[str, list[float]] = {}
    for _ in range(photons):
        record = emit_photon(scene, rng)
        pp = PolarizedPhoton.from_photon(record.photon)
        for _ in range(MAX_BOUNCES):
            hit = intersect(
                scene, Ray(pp.photon.position, pp.photon.direction, normalized=True)
            )
            if hit is None:
                break
            arrivals.setdefault(hit.patch.material.name, []).append(
                pp.stokes.degree_of_polarization()
            )
            out = polarized_reflect(pp, hit, rng, mirror_rs=1.0, mirror_rp=0.6)
            if out is None:
                break
            _, pp = out

    rows = []
    for name, dops in sorted(arrivals.items(), key=lambda kv: -len(kv[1])):
        rows.append([name, len(dops), f"{sum(dops) / len(dops):.3f}", f"{max(dops):.3f}"])
    print("degree of polarization of light *arriving* at each material:")
    print(format_table(["material", "arrivals", "mean DOP", "max DOP"], rows))
    print(
        "\nonly mirror-bounced light is polarized — every max-DOP > 0 row"
        " received reflections from the floating mirror.\n"
    )


def fluorescence_study(photons: int) -> None:
    # A black-lit gallery: blue-only lamp, dark walls, fluorescent poster.
    dark = matte("dark", 0.15, 0.15, 0.18)
    poster = Material(name="poster", diffuse=RGB(0.05, 0.05, 0.05))
    blue_lamp = emitter("uv-lamp", 0.0, 0.0, 12.0)
    patches = [
        axis_rect("y", 0.0, (0, 3), (0, 3), dark, name="floor", flip=True),
        axis_rect("y", 2.5, (0, 3), (0, 3), dark, name="ceiling"),
        axis_rect("x", 0.0, (0, 2.5), (0, 3), dark, name="w0"),
        axis_rect("x", 3.0, (0, 2.5), (0, 3), dark, name="w1", flip=True),
        axis_rect("z", 0.0, (0, 3), (0, 2.5), dark, name="w2"),
        axis_rect("z", 3.0, (0, 3), (0, 2.5), dark, name="w3", flip=True),
        axis_rect("y", 2.49, (1.2, 1.8), (1.2, 1.8), blue_lamp, name="lamp"),
        axis_rect("z", 0.01, (0.8, 2.2), (0.6, 1.9), poster, name="poster"),
    ]
    scene = Scene(patches, name="blacklight-gallery")
    spec = FluorescenceSpec.simple(blue_to_green=0.65)

    rng = Lcg48(23)
    band_tallies = [0, 0, 0]
    poster_glow = [0, 0, 0]
    for _ in range(photons):
        record = emit_photon(scene, rng)
        photon = record.photon
        band_tallies[photon.band] += 1
        for _ in range(MAX_BOUNCES):
            hit = intersect(scene, Ray(photon.position, photon.direction, normalized=True))
            if hit is None:
                break
            result = fluorescent_reflect(photon, hit, rng, spec)
            if result is None:
                break
            band_tallies[photon.band] += 1
            if hit.patch.name == "poster":
                poster_glow[photon.band] += 1
            photon.advance_to(hit.point, result.direction)

    print("black-light gallery (blue-only illumination):")
    print(
        format_table(
            ["band", "scene tallies", "poster departures"],
            [
                ["red", band_tallies[0], poster_glow[0]],
                ["green", band_tallies[1], poster_glow[1]],
                ["blue", band_tallies[2], poster_glow[2]],
            ],
        )
    )
    print(
        "\nall emission was blue, yet the poster departs green light: "
        "the Stokes-shift down-conversion at work."
    )

    # The same physics through the public session API: fluorescence is a
    # per-request knob, so one warm session serves both the plain and the
    # fluorescent request without recompiling the scene.
    with RenderSession(scene) as session:
        plain = session.simulate(SimulateRequest(n_photons=photons))
        fluor = session.simulate(
            SimulateRequest(n_photons=photons, fluorescence=spec)
        )
    print(
        f"\nsession check — green tallies without fluorescence: "
        f"{plain.forest.band_tallies[1]:,}; with: "
        f"{fluor.forest.band_tallies[1]:,}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, default=3000)
    args = parser.parse_args()
    polarization_study(args.photons)
    fluorescence_study(args.photons)


if __name__ == "__main__":
    main()
