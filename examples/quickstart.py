#!/usr/bin/env python
"""Quickstart: one RenderSession, repeated simulate/view requests.

This walks the full Photon pipeline of the paper (Figure 4.9) through
the public session API (``repro.api``): a Monte Carlo light-transport
*simulation* stage that builds the 4-D histogram answer, then a cheap
single-bounce *viewing* stage that can be repeated from any viewpoint
without re-simulating (Figure 4.10) — batched through the session's
compiled closest-hit kernel, a 160x120 frame is tens of milliseconds.

The session is the paper's architecture made explicit: a long-lived
simulation program serving many requests.  The scene is compiled once
into a :class:`repro.api.SceneProgram` (patch arrays + flattened
octree); every ``session.simulate(request)`` after the first reuses the
warm engine, and every ``session.render`` reads the same answer.

Sessions trace with the NumPy batch engine: photons in
structure-of-arrays batches through the flat walk's tree on large
scenes, and with ``--workers N`` sharded across a persistent
multiprocessing pool that stays warm across requests.  The per-photon
reference loop of Figure 4.1 is the correctness oracle of the
paper-reproduction tier (``repro.paper.scalar.run_scalar``, ~10k
photons/s on the Cornell box);
``--compare-engines`` times it against a session and checks that both
write bit-identical answers under per-photon substream RNG.

Run:
    python examples/quickstart.py [--photons 20000] [--out-dir .]
    python examples/quickstart.py --workers 4
    python examples/quickstart.py --compare-engines
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.api import (
    Camera,
    RenderSession,
    SessionOptions,
    SimulateRequest,
)
from repro.core import SimulationConfig, load_answer, save_answer
from repro.geometry import Vec3
from repro.image import save_radiance_ppm
from repro.scenes import cornell_box


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, default=20_000)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--width", type=int, default=160)
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--compare-engines",
        action="store_true",
        help="time the scalar oracle vs a session on the same budget "
        "and check parity",
    )
    args = parser.parse_args()

    scene = cornell_box()
    print(f"scene: {scene.name} — {scene.defining_polygon_count} defining polygons")

    if args.compare_engines:
        compare_engines(scene, args.photons)
        return

    options = SessionOptions(workers=args.workers)
    request = SimulateRequest(n_photons=args.photons)
    label = "vector" + (f" x{args.workers} procs" if args.workers > 1 else "")

    with RenderSession(scene, options) as session:
        # --- Simulation stage (request #1 pays compile + spawn) -----------
        t0 = time.perf_counter()
        result = session.simulate(request)
        dt = time.perf_counter() - t0
        print(
            f"simulated {args.photons:,} photons in {dt:.1f}s "
            f"({args.photons / dt:,.0f} photons/s, {label})"
        )
        print(
            f"answer: {result.forest.leaf_count:,} view-dependent bins, "
            f"{result.forest.total_tallies:,} tallies, "
            f"{result.forest.memory_bytes() / 1024:.0f} KB, "
            f"mean bounces {result.stats.mean_bounces:.2f}"
        )
        result.forest.check_invariants()

        # A second request on the warm session skips all setup.
        t0 = time.perf_counter()
        session.simulate(SimulateRequest(n_photons=args.photons, seed=0xFEED))
        print(
            f"warm request #2 (different seed): "
            f"{time.perf_counter() - t0:.1f}s — no recompile, no respawn"
        )

        answer_path = args.out_dir / "cornell.answer.json"
        save_answer(result.forest, answer_path)
        print(f"answer file written: {answer_path}")

        # --- Viewing stage (twice, same answer file) ----------------------
        forest = load_answer(answer_path)
        views = {
            # None = the camera registered with the scene itself.
            "cornell_front.ppm": None,
            "cornell_left.ppm": Camera(
                position=Vec3(0.35, 1.5, 3.7),
                look_at=Vec3(1.3, 0.7, 0.4),
                width=args.width,
                height=args.height,
                vertical_fov_degrees=42.0,
            ),
        }
        for name, camera in views.items():
            t0 = time.perf_counter()
            image = session.render(
                forest, camera, width=args.width, height=args.height
            )
            out = args.out_dir / name
            save_radiance_ppm(image, out)
            print(
                f"rendered {out} in {(time.perf_counter() - t0) * 1e3:.0f} ms "
                "(no re-simulation)"
            )


def compare_engines(scene, photons: int) -> None:
    """Time the scalar oracle against a vector session, prove parity."""
    from repro.core import forest_to_dict
    from repro.paper.scalar import run_scalar

    def oracle():
        config = SimulationConfig(n_photons=photons)
        return run_scalar(scene, config, rng="substream")

    def served():
        with RenderSession(scene) as session:
            return session.simulate(SimulateRequest(n_photons=photons))

    rates = {}
    forests = {}
    for engine, run in (("scalar", oracle), ("vector", served)):
        t0 = time.perf_counter()
        result = run()
        dt = time.perf_counter() - t0
        rates[engine] = photons / dt
        forests[engine] = forest_to_dict(result.forest)
        print(f"{engine:>7s}: {rates[engine]:>10,.0f} photons/s ({dt:.2f}s)")
    print(f"speedup: {rates['vector'] / rates['scalar']:.1f}x")
    identical = forests["scalar"] == forests["vector"]
    print(f"answers bit-identical: {identical}")
    if not identical:
        raise SystemExit("engine parity violated — run the parity test suite")


if __name__ == "__main__":
    main()
