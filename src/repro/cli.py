"""Command-line interface: the simulate/view split as shell commands.

The paper's architecture separates the simulation program from the
viewing program, communicating through an answer file; the CLI exposes
exactly that workflow::

    python -m repro scenes
    python -m repro simulate cornell-box --photons 50000 --out cornell.answer.json
    python -m repro view cornell-box cornell.answer.json --out cornell.ppm
    python -m repro trace cornell-box --platform sp2 --ranks 1 2 4 8
    python -m repro serve --scene cornell-box --scene gen:office-8@0xBEEF

Scenes are *specs*, not just registered names: ``--scene-file my.json``
(or ``file:my.json`` anywhere a scene name is accepted) loads the JSON
schema / OBJ subset, and ``--gen office-64@7`` (or ``gen:office-64@7``)
builds a seeded procedural scene; ``save-scene`` writes any spec back
out as a schema file.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .analysis.cliargs import add_lint_arguments
from .api import RenderSession, SessionOptions, SimulateRequest
from .api.requests import check_seed
from .core import Camera, SplitPolicy, load_answer, save_answer
from .geometry import Vec3
from .image import save_radiance_ppm
from .scenes import SceneFormatError, get_scene, scene_registry
from .scenes.loader import save_scene

__all__ = ["main", "build_parser"]


def _seed_arg(value: str) -> int:
    """``--seed``: any int literal (``0xBEEF`` too) in ``[0, 2**48)``."""
    try:
        return check_seed(int(value, 0))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Photon global illumination (Snell 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenes", help="list the registered test scenes")

    p_sim = sub.add_parser(
        "simulate",
        help="run the Photon simulation stage",
        description=(
            "Serves the request on a RenderSession, as `repro serve` "
            "does: the vector engine traces photons on per-photon "
            "substreams, so the answer file is byte-identical to the "
            "service's answer for the same budget and seed; --workers N "
            "shards each request across a process pool."
        ),
    )
    p_sim.add_argument(
        "scene",
        nargs="?",
        help=(
            "scene spec: a registered name, 'file:<path>', or "
            "'gen:<kind>-<units>[@seed]' (or use --scene-file / --gen)"
        ),
    )
    p_sim.add_argument(
        "--scene-file",
        type=Path,
        help="load the scene from a photon-scene JSON (or OBJ subset) file",
    )
    p_sim.add_argument(
        "--gen",
        metavar="SPEC",
        help=(
            "generate a seeded procedural scene, e.g. 'office-64' or "
            "'den-48@7' (deterministic: same spec, same scene, same answer)"
        ),
    )
    p_sim.add_argument("--photons", type=int, default=20_000)
    p_sim.add_argument("--seed", type=_seed_arg, default=0x1234ABCD330E)
    p_sim.add_argument("--sigma", type=float, default=3.0, help="bin split threshold")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count (>1 shards each request across a worker pool)",
    )
    p_sim.add_argument(
        "--target-error",
        type=float,
        default=None,
        metavar="REL",
        help=(
            "convergence target: stop tracing once the forest's median "
            "per-bin relative error reaches REL; the answer file is the "
            "exact canonical answer for the photons actually traced (a "
            "prefix of --photons, never an approximation)"
        ),
    )
    p_sim.add_argument(
        "--amortize",
        action="store_true",
        help=(
            "enable the program-level forest cache: with --repeat, "
            "repeated requests reuse already-traced photons exactly "
            "(byte-identical answers) and a final `saved:` line reports "
            "the photons the cache avoided retracing"
        ),
    )
    p_sim.add_argument(
        "--repeat",
        type=int,
        default=1,
        help=(
            "serve the request N times on one warm RenderSession and print "
            "per-request timings: request #1 pays scene compile / plane "
            "publish / worker spawn, every later request pays tracing only "
            "(the session-reuse demonstration)"
        ),
    )
    p_sim.add_argument("--out", type=Path, required=True, help="answer file path")

    p_view = sub.add_parser("view", help="render a viewpoint from an answer file")
    p_view.add_argument("scene", help="scene the answer was computed for")
    p_view.add_argument("answer", type=Path, help="answer file from `simulate`")
    p_view.add_argument("--out", type=Path, required=True, help="PPM output path")
    p_view.add_argument("--width", type=int, default=320)
    p_view.add_argument("--height", type=int, default=240)
    p_view.add_argument("--eye", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p_view.add_argument("--look-at", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p_view.add_argument("--fov", type=float, default=None)

    p_trace = sub.add_parser(
        "trace", help="print a platform model's speed trace for a scene"
    )
    p_trace.add_argument("scene")
    p_trace.add_argument(
        "--platform", default="sp2", help="power-onyx | indy-cluster | sp2"
    )
    p_trace.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4, 8])
    p_trace.add_argument("--duration", type=float, default=320.0)
    p_trace.add_argument("--read-at", type=float, default=250.0)

    p_save = sub.add_parser(
        "save-scene",
        help="resolve a scene spec and write it as a photon-scene JSON file",
        description=(
            "Resolves any scene spec — a registered name, file:<path>, or "
            "gen:<kind>-<units>[@seed] — and writes it back out in the "
            "versioned JSON schema.  save -> load -> save is byte-stable, "
            "and generated scenes record their generator metadata, so the "
            "written file is a self-contained, reproducible scene "
            "description."
        ),
    )
    p_save.add_argument("scene", help="scene spec to resolve")
    p_save.add_argument("--out", type=Path, required=True, help="output JSON path")

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP render service",
        description=(
            "Hosts every --scene spec behind a stdlib-asyncio HTTP front "
            "end: POST /scenes/<spec>/simulate returns the canonical "
            "answer JSON byte-identical to the `simulate` answer file, "
            "?stream=1 streams chunked NDJSON progress whose final line "
            "is that same answer, GET /healthz and /stats report "
            "liveness and residency/admission counters.  Programs are "
            "LRU-evicted under --max-programs/--max-bytes; each scene "
            "serves from a bounded pool of warm sessions with a bounded "
            "wait queue (429 when full) and per-request deadlines (504).  "
            "SIGTERM/SIGINT shut down gracefully, unlinking every "
            "shared-memory segment."
        ),
    )
    p_serve.add_argument(
        "--scene",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "a scene spec to serve (repeatable): a registered name, "
            "'file:<path>', or 'gen:<kind>-<units>[@seed]'; requests for "
            "specs not listed here are refused with 404"
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral port (printed at startup)",
    )
    p_serve.add_argument(
        "--max-programs",
        type=int,
        default=4,
        help="resident compiled-program budget (LRU eviction above it)",
    )
    p_serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="optional resident compiled-array byte budget",
    )
    p_serve.add_argument(
        "--pool-size",
        type=int,
        default=2,
        help="warm sessions per resident scene",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="per-scene admission queue bound; the next request gets 429",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (body may override)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count per pooled session",
    )
    p_serve.add_argument(
        "--amortize",
        choices=("on", "off"),
        default="on",
        help=(
            "cross-request amortization: cache traced forests per scene "
            "so a repeated request traces nothing, a larger-budget "
            "request tops up a cached smaller run (byte-identical to a "
            "cold trace) and camera-only renders skip tracing entirely "
            "(default: on)"
        ),
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism & lifecycle static-analysis suite",
        description=(
            "AST checks for the repo's load-bearing contracts: "
            "determinism hygiene in canonical modules (det-*), "
            "shared-memory segment lifecycle pairing (shm-*), blocking "
            "calls in async code (async-*), and API-surface drift "
            "(api-*, hyg-*).  Exit 0 = clean, 1 = findings, 2 = usage "
            "or parse error.  Config lives in [tool.repro.lint] in "
            "pyproject.toml; suppress single findings with "
            "'# repro: allow[rule-id]' pragmas or the baseline file."
        ),
    )
    add_lint_arguments(p_lint)

    # Usage errors discovered after parsing (config validation) should
    # show the offending subcommand's synopsis, not the root command
    # list — keep a handle on the subparser for the error path.
    parser.simulate_parser = p_sim
    parser.view_parser = p_view
    parser.serve_parser = p_serve
    parser.trace_parser = p_trace
    parser.lint_parser = p_lint
    return parser


def _resolve_scene(spec: str, parser: argparse.ArgumentParser):
    """Scene spec -> Scene, reporting failures the argparse way.

    A missing file, a schema violation, or a bad generator spec is a
    usage error (exit 2 with the offending path/field named), not a
    traceback.  Unknown registered names keep raising ``KeyError`` —
    the long-standing programmatic contract of ``build_scene``.
    """
    try:
        return get_scene(spec)
    except (SceneFormatError, ValueError) as exc:
        parser.error(str(exc))


def _simulate_scene_spec(args, parser: argparse.ArgumentParser) -> str:
    """The one scene spec of a simulate invocation (positional or flag)."""
    specs = [
        spec
        for spec in (
            args.scene,
            f"file:{args.scene_file}" if args.scene_file else None,
            f"gen:{args.gen}" if args.gen else None,
        )
        if spec
    ]
    if len(specs) != 1:
        parser.simulate_parser.error(
            "pass exactly one scene: a positional spec, --scene-file, or --gen"
        )
    return specs[0]


def _cmd_scenes(out) -> int:
    from .paper.perf import format_table

    rows = []
    for name, builder in scene_registry().items():
        scene = builder()
        rows.append(
            [name, scene.defining_polygon_count, len(scene.luminaires)]
        )
    print(format_table(["scene", "defining polygons", "luminaires"], rows), file=out)
    return 0


def _cmd_simulate(args, out, parser: argparse.ArgumentParser) -> int:
    scene = _resolve_scene(_simulate_scene_spec(args, parser), parser)
    try:
        # Every flag is checked before anything is provisioned.
        if args.repeat < 1:
            raise ValueError("--repeat must be at least 1")
        request = SimulateRequest(
            n_photons=args.photons,
            seed=args.seed,
            policy=SplitPolicy(threshold=args.sigma),
            target_rel_error=args.target_error,
        )
        options = SessionOptions(workers=args.workers, amortize=args.amortize)
    except ValueError as exc:
        # Values the request or the session rejects are usage errors, not
        # tracebacks: report them the argparse way (usage line + message,
        # exit code 2), against the simulate subparser so the synopsis
        # actually shows the flags the message talks about.
        parser.simulate_parser.error(str(exc))
    result, dt = _serve_repeated(scene, request, options, args, out)
    if result.early_stopped:
        achieved = result.achieved_rel_error
        label = (
            f"{achieved:.4g}"
            if achieved is not None and math.isfinite(achieved)
            else "inf"
        )
        print(
            f"early stop: target {args.target_error:g} reached after "
            f"{result.config.n_photons:,} of {args.photons:,} photons "
            f"(achieved {label})",
            file=out,
        )
    result.forest.check_invariants()
    save_answer(result.forest, args.out)
    photons_done = result.config.n_photons
    procs = f", {args.workers} procs" if args.workers > 1 else ""
    print(
        f"{photons_done:,} photons in {dt:.1f}s "
        f"({photons_done / max(dt, 1e-9):,.0f}/s{procs}); "
        f"{result.forest.leaf_count:,} bins; "
        f"answer -> {args.out}",
        file=out,
    )
    return 0


def _serve_repeated(scene, request, options, args, out):
    """Serve *request* ``--repeat`` times on one warm session.

    Returns the last result and the seconds its serve took.
    """
    with RenderSession(scene, options) as session:
        warm_seconds = 0.0
        total_seconds = 0.0
        for i in range(args.repeat):
            t0 = time.perf_counter()
            result = session.simulate(request)
            dt = time.perf_counter() - t0
            total_seconds += dt
            if i > 0:
                warm_seconds += dt
            if args.repeat > 1:
                phase = "cold: compile+publish+spawn" if i == 0 else "warm"
                print(
                    f"request {i + 1}/{args.repeat}: {args.photons:,} "
                    f"photons in {dt:.2f}s "
                    f"({args.photons / max(dt, 1e-9):,.0f}/s, {phase})",
                    file=out,
                )
        if args.repeat > 1:
            # The serving number a warm session is provisioned for: the
            # aggregate rate across every request, plus the warm-only
            # rate that excludes request #1's one-time provisioning.
            total_photons = args.photons * args.repeat
            warm_photons = args.photons * (args.repeat - 1)
            print(
                f"aggregate: {args.repeat} requests, {total_photons:,} "
                f"photons in {total_seconds:.2f}s "
                f"({total_photons / max(total_seconds, 1e-9):,.0f}/s overall, "
                f"{warm_photons / max(warm_seconds, 1e-9):,.0f}/s warm)",
                file=out,
            )
        if args.amortize:
            amort = session.program.amortize_stats()
            if amort["photons_saved"] > 0:
                print(
                    f"saved: {amort['photons_saved']:,} photons reused from "
                    f"the forest cache ({amort['exact_hits']} exact hits, "
                    f"{amort['topups']} top-ups)",
                    file=out,
                )
    return result, dt


def _cmd_view(args, out, parser: argparse.ArgumentParser) -> int:
    scene = _resolve_scene(args.scene, parser)
    # Viewing defaults travel with the scene (Scene.default_camera), so
    # newly registered scenes frame themselves instead of inheriting a
    # hardcoded fallback viewpoint.
    defaults = scene.default_camera
    position = Vec3(*args.eye) if args.eye else defaults["position"]
    look_at = Vec3(*args.look_at) if args.look_at else defaults["look_at"]
    fov = args.fov if args.fov is not None else defaults.get(
        "vertical_fov_degrees", 55.0
    )
    try:
        camera = Camera(
            position=position,
            look_at=look_at,
            vertical_fov_degrees=fov,
            width=args.width,
            height=args.height,
        )
        forest = load_answer(args.answer)
    except (OSError, ValueError) as exc:
        # A degenerate camera or an unreadable answer file is a usage
        # error (usage line + message, exit 2), not a traceback.
        parser.view_parser.error(str(exc))
    t0 = time.perf_counter()
    with RenderSession(scene) as session:
        image = session.render(forest, camera)
    save_radiance_ppm(image, args.out)
    print(
        f"rendered {args.width}x{args.height} in "
        f"{time.perf_counter() - t0:.2f}s -> {args.out}",
        file=out,
    )
    return 0


def _cmd_save_scene(args, out, parser: argparse.ArgumentParser) -> int:
    scene = _resolve_scene(args.scene, parser)
    save_scene(scene, args.out)
    print(
        f"{scene.name}: {scene.defining_polygon_count:,} patches, "
        f"{len(scene.luminaires)} luminaires -> {args.out}",
        file=out,
    )
    return 0


def _cmd_trace(args, out, parser: argparse.ArgumentParser) -> int:
    # The platform models are paper-reproduction code: imported here, so
    # no other command (`serve` above all) loads them.
    from .paper.cluster import PLATFORMS, profile_scene, trace_family
    from .paper.perf import ascii_traces, format_table, speedup_table

    # Checked here, not with argparse `choices=`: that would import the
    # platform table whenever any command's parser is built.
    if args.platform not in PLATFORMS:
        parser.trace_parser.error(
            f"argument --platform: invalid choice: {args.platform!r} "
            f"(choose from {', '.join(sorted(PLATFORMS))})"
        )
    machine = PLATFORMS[args.platform]
    scene = _resolve_scene(args.scene, parser)
    # Same rule as simulate: a model the flags cannot describe is a
    # usage error (usage line + message, exit 2), not a traceback.
    try:
        family = trace_family(
            machine,
            profile_scene(scene, photons=250),
            sorted(set(args.ranks)),
            duration_s=args.duration,
        )
    except ValueError as exc:
        parser.trace_parser.error(str(exc))
    try:
        table = speedup_table(family, at_time=args.read_at) if 1 in family else None
    except ValueError as exc:
        parser.trace_parser.error(f"argument --read-at: {exc}")
    print(ascii_traces(family, title=f"{machine.name} / {scene.name}"), file=out)
    if table is not None:
        print(
            format_table(
                ["processors", f"speedup@{args.read_at:.0f}s"],
                [[r, f"{s:.2f}"] for r, s in sorted(table.speedups.items())],
            ),
            file=out,
        )
    return 0


async def _serve_main(config, out) -> None:
    """Start the service, print readiness, park until SIGTERM/SIGINT."""
    import signal

    from .service import RenderService

    service = RenderService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except NotImplementedError:  # pragma: no cover — non-Unix loop
            pass
    print(
        f"serving {len(config.scenes)} scene(s): "
        + ", ".join(config.scenes),
        file=out,
        flush=True,
    )
    # The readiness line: scripts (and the serve tests) wait for it,
    # then parse the bound port out of it when --port 0 was used.
    print(
        f"listening on http://{service.host}:{service.port}",
        file=out,
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        print("shutting down: draining sessions ...", file=out, flush=True)
        await service.close()
        print("bye", file=out, flush=True)


def _cmd_serve(args, out, parser: argparse.ArgumentParser) -> int:
    from .service import ServiceConfig

    if not args.scene:
        parser.serve_parser.error(
            "pass at least one --scene spec (repeatable)"
        )
    try:
        options = SessionOptions(
            workers=args.workers,
            amortize=args.amortize == "on",
        )
        config = ServiceConfig(
            scenes=tuple(args.scene),
            host=args.host,
            port=args.port,
            max_programs=args.max_programs,
            max_bytes=args.max_bytes,
            sessions_per_scene=args.pool_size,
            queue_limit=args.queue_limit,
            default_deadline=args.deadline,
            options=options,
        )
    except ValueError as exc:
        parser.serve_parser.error(str(exc))
    try:
        asyncio.run(_serve_main(config, out))
    except ValueError as exc:
        # Bad scene specs are discovered by RenderService.start() (the
        # generators / registry are the authority); report them as the
        # usage errors they are.
        parser.serve_parser.error(str(exc))
    except KeyboardInterrupt:  # pragma: no cover — belt for odd loops
        pass
    return 0


def _cmd_lint(args, out, parser: argparse.ArgumentParser) -> int:
    # Lazy import: the analysis engine is pure stdlib, but keeping it
    # off the hot CLI paths mirrors how `serve` loads its tier.
    from .analysis.engine import run as run_lint

    return run_lint(
        args.paths,
        out=out,
        fmt=args.format,
        rules=args.rule or None,
        extra_exclude=args.exclude,
        baseline=args.baseline,
        no_baseline=args.no_baseline,
        write_baseline_to=args.write_baseline,
        error=parser.lint_parser.error,
    )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scenes":
        return _cmd_scenes(out)
    if args.command == "simulate":
        return _cmd_simulate(args, out, parser)
    if args.command == "view":
        return _cmd_view(args, out, parser)
    if args.command == "trace":
        return _cmd_trace(args, out, parser)
    if args.command == "save-scene":
        return _cmd_save_scene(args, out, parser)
    if args.command == "serve":
        return _cmd_serve(args, out, parser)
    if args.command == "lint":
        return _cmd_lint(args, out, parser)
    raise AssertionError(f"unhandled command {args.command!r}")
