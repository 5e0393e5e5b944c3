"""Public-API lockdown: the ``repro.api`` surface and its contracts.

The session API is the stable surface later layers build on, so its
shape is pinned here: every ``__all__`` name imports round-trip, the
request/options split stays frozen, hashable and strictly typed, the
removed engine/RNG knobs and the one-shot shim stay gone, and a session
serves the scalar oracle's substream bytes.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.api as api
import repro.core
from repro.api import (
    RenderSession,
    SceneProgram,
    SessionOptions,
    SimulateRequest,
    merge_config,
)
from repro.core import SimulationConfig, SplitPolicy, forest_to_dict
from repro.core.vectorized import VectorEngine
from repro.paper import scalar
from repro.paper.cluster import profile_scene
from repro.paper.scalar import run_scalar
from repro.paper.shared import SharedConfig, run_shared
from tests.scenehelpers import build_mini_scene


def forest_bytes(result) -> str:
    return json.dumps(forest_to_dict(result.forest), sort_keys=True)


class TestSurface:
    def test_all_names_import_roundtrip(self):
        assert api.__all__ == sorted(api.__all__)
        for name in api.__all__:
            obj = getattr(api, name)
            assert obj is not None, name

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        exported = {k for k in namespace if not k.startswith("_")}
        assert exported == set(api.__all__)


#: The paper-reproduction tier: nothing outside it may import it, except
#: the CLI's `trace` and `scenes` command bodies.
FENCED = "repro.paper"
FENCE_GATES = {"cli.py": ("_cmd_trace", "_cmd_scenes")}

SRC = Path(api.__file__).resolve().parents[2]

#: Every package and top-level module of `repro` outside the fence.
OUTSIDE_FENCE = sorted(
    path.name
    for path in (SRC / "repro").iterdir()
    if path.name != "paper"
    and (path.suffix == ".py" or (path / "__init__.py").is_file())
)


def _outside_functions(node, skipped):
    """Every node under *node* except the bodies of the functions named
    in *skipped*."""
    for child in ast.iter_child_nodes(node):
        if not (
            isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child.name in skipped
        ):
            yield child
            yield from _outside_functions(child, skipped)


def imported_modules(path: Path, *, skipped: tuple = ()) -> set:
    """Every absolute module name *path* imports, at any nesting depth,
    outside the bodies of the functions named in *skipped*.

    ``from X import a`` contributes both ``X`` and ``X.a`` (``a`` may be
    a submodule); relative imports resolve against the file's package.
    """
    package = path.relative_to(SRC).parent.parts
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in _outside_functions(tree, skipped):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = list(package[: len(package) - node.level + 1]) if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


#: Names only fenced modules may hold: a serving-path module that has
#: one has pulled in the scalar loop, its physics, the pointer octree,
#: the Table 5.3 controller or the chapter-3 histograms.
FENCED_ATTRS = (
    "trace_photon", "run_scalar", "Octree", "emit_photon", "reflect",
    "polarized_reflect", "AdaptiveBatchController", "AdaptiveHistogram",
)


class TestImportFence:
    @pytest.mark.parametrize("tier", OUTSIDE_FENCE)
    def test_serving_path_never_imports_reproduction_tiers(self, tier):
        """No package outside `repro.paper` imports it, function-level
        imports included; `cli.py` may only inside its `trace` and
        `scenes` command bodies."""
        root = SRC / "repro" / tier
        crossings = [
            f"{path.relative_to(SRC)}: {name}"
            for path in (sorted(root.glob("**/*.py")) if root.is_dir() else [root])
            for name in sorted(
                imported_modules(path, skipped=FENCE_GATES.get(tier, ()))
            )
            if name == FENCED or name.startswith(FENCED + ".")
        ]
        assert crossings == []

    @pytest.mark.parametrize("old", [
        "repro.cluster", "repro.perf", "repro.radiosity", "repro.raytrace",
        "repro.parallel.shared", "repro.parallel.distributed",
        "repro.parallel.geomdist", "repro.parallel.mpi",
        "repro.parallel.loadbalance", "repro.geometry.octree",
        "repro.montecarlo.densityestimation",
        "repro.core.generation", "repro.core.reflection",
        "repro.core.polarization", "repro.core.batch",
        "repro.montecarlo.histogram", "repro.montecarlo.integration",
        "repro.montecarlo.variance", "repro.geometry.transform",
    ])
    def test_old_paths_are_gone(self, old):
        """The tier and the scalar physics moved (or were deleted)
        without aliases."""
        with pytest.raises(ImportError):
            importlib.import_module(old)

    @pytest.mark.parametrize("module, name", [
        ("repro.core", "run_scalar"),
        ("repro.core", "trace_photon"),
        ("repro.core", "TallyEvent"),
        ("repro.core", "ENGINES"),
        ("repro.core", "RNG_MODES"),
        ("repro.geometry", "Octree"),
        ("repro.core", "emit_photon"),
        ("repro.core", "reflect"),
        ("repro.core", "Photon"),
        ("repro.core", "PolarizedPhoton"),
        ("repro.core", "AdaptiveBatchController"),
        ("repro.core", "fluorescent_reflect"),
        ("repro.montecarlo", "AdaptiveHistogram"),
        ("repro.geometry", "Transform"),
    ], ids=lambda value: value.rpartition(".")[2])
    def test_old_names_are_gone(self, module, name):
        """The scalar loop, its physics, the pointer octree and the
        chapter-3 histograms moved (the transforms were deleted) without
        aliases."""
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("attr", [
        "octree", "intersect", "intersect_linear", "is_occluded",
    ])
    def test_scene_has_no_scalar_queries(self, mini_scene, attr):
        """They are functions over a scene in `repro.paper.octree`."""
        assert not hasattr(mini_scene, attr)

    def test_serving_imports_load_no_fenced_module(self):
        """Importing the CLI, the service and the pool in a fresh process
        loads no `repro.paper` module, nothing holding the scalar loop,
        its physics, the pointer octree or the chapter-3 histograms, and
        of the lint package only the `repro lint` argument wiring."""
        probe = (
            "import sys\n"
            "import repro.cli, repro.service, repro.parallel.procpool\n"
            f"fenced = {FENCED_ATTRS!r}\n"
            "print([name for name, module in list(sys.modules.items())\n"
            "       if name.startswith('repro') and (name.startswith('repro.paper')\n"
            "       or name.startswith('repro.analysis.')\n"
            "       and name != 'repro.analysis.cliargs'\n"
            "       or any(hasattr(module, attr) for attr in fenced))])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_simulate_loads_no_fenced_module(self, tmp_path):
        """`repro simulate` serves what `repro serve` serves: a whole run,
        answer file written, loads no `repro.paper` module."""
        answer = tmp_path / "a.json"
        probe = (
            "import io, sys\n"
            "from repro.cli import main\n"
            "assert main(['simulate', 'cornell-box', '--photons', '50',\n"
            f"             '--out', {str(answer)!r}], out=io.StringIO()) == 0\n"
            "print([name for name in sys.modules\n"
            "       if name.startswith('repro.paper')])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert answer.exists()

    def test_parallel_exports_only_the_serving_backend(self):
        import repro.parallel as parallel

        homes = {getattr(parallel, name).__module__ for name in parallel.__all__}
        assert homes == {
            "repro.parallel.procpool",
            "repro.parallel.resultplane",
            "repro.parallel.shmplane",
        }


def stream_chunk(chunk) -> None:
    """Open and close a stream of *chunk* photons a yield (the stream's
    ``batch_size``, the one chunk size a caller still names)."""
    with RenderSession(build_mini_scene()) as session:
        session.simulate_stream(
            SimulateRequest(n_photons=1), batch_size=chunk
        ).close()


class TestRequestOptionsSplit:
    def test_request_frozen(self):
        request = SimulateRequest(n_photons=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.n_photons = 20

    def test_options_frozen(self):
        options = SessionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 2

    def test_request_hashable_by_value(self):
        a = SimulateRequest(n_photons=10, seed=7)
        b = SimulateRequest(n_photons=10, seed=7)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SimulateRequest(n_photons=11, seed=7)}) == 2

    def test_options_hashable_by_value(self):
        assert hash(SessionOptions(workers=2)) == hash(SessionOptions(workers=2))

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SimulateRequest(n_photons=-1)

    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_target_error_must_be_positive_and_finite(self, target):
        """An infinite target is met by the first batch, so every request
        would stop after it; the rule is ``SplitPolicy``'s threshold rule."""
        with pytest.raises(ValueError, match="positive and finite"):
            SimulateRequest(n_photons=10, target_rel_error=target)
        assert SimulateRequest(n_photons=10, target_rel_error=1e300).target_rel_error == 1e300

    @pytest.mark.parametrize("seed", [-5, 2**48, 2**80])
    def test_seed_outside_the_generator_period_is_refused(self, seed):
        """The generators reduce seeds modulo 2**48: -5 and 2**48 - 5
        would serve the same bytes under two trace keys."""
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*48\)"):
            SimulateRequest(n_photons=10, seed=seed)
        assert SimulateRequest(n_photons=10, seed=0).seed == 0
        assert SimulateRequest(n_photons=10, seed=2**48 - 1).seed == 2**48 - 1

    @pytest.mark.parametrize("make", [
        lambda n: SimulateRequest(n_photons=n),
        lambda n: SimulationConfig(n_photons=n),
    ], ids=["request", "config"])
    def test_photons_past_the_substream_period_are_refused(self, make):
        """Photon *i* + 2**28 would reuse photon *i*'s substream, so a
        bigger budget would silently repeat samples."""
        for n in (2**28 + 1, 10**10):
            with pytest.raises(ValueError, match=r"at most 268435456 \(2\*\*28\)"):
                make(n)
        assert make(2**28).n_photons == 2**28

    @pytest.mark.parametrize("make, field", [
        (lambda v: SimulateRequest(n_photons=300, seed=v), "seed"),
        (lambda v: SimulateRequest(n_photons=v), "n_photons"),
        (lambda v: SessionOptions(workers=v), "workers"),
        (stream_chunk, "batch_size"),
    ], ids=["seed", "n_photons", "workers", "batch_size"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1"],
                             ids=["float", "integral-float", "bool", "str"])
    def test_integer_fields_refuse_non_ints(self, make, field, value):
        """``seed=1.5`` would serve seed 1's bytes and ``True`` is an
        int to Python: both are a TypeError naming the field."""
        with pytest.raises(TypeError, match=field):
            make(value)
        make(1)  # the same field as a plain int is fine

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SessionOptions(workers=0)
        # One wave width serves every session (PHOTONS_IN_FLIGHT): the
        # batch-size knob is gone, not ignored.
        with pytest.raises(TypeError, match="batch_size"):
            SessionOptions(batch_size=0)
        with pytest.raises(TypeError, match="batch_size"):
            SessionOptions(batch_size=64)
        with pytest.raises(TypeError, match="batch_size"):
            SimulationConfig(n_photons=1, batch_size=64)
        # Sessions trace only with the vector engine on substreams: the
        # engine and RNG knobs are gone, not ignored.
        with pytest.raises(TypeError):
            SessionOptions(engine="scalar")
        with pytest.raises(TypeError):
            SimulateRequest(n_photons=1, rng_mode="substream")
        with pytest.raises(TypeError):
            SessionOptions(engine="vector")
        # The transport knobs are gone, not ignored: the planes are the
        # pool's only transports, so naming one is a loud TypeError.
        with pytest.raises(TypeError):
            SessionOptions(share_plane="on")
        with pytest.raises(TypeError):
            SimulationConfig(n_photons=1, result_plane="on")
        # So is the whole-result memo: ForestCache (amortize=True) is
        # the only cross-request cache.
        with pytest.raises(TypeError):
            SessionOptions(cache_results=True)
        assert [f.name for f in dataclasses.fields(SessionOptions)] == [
            "workers", "amortize",
        ]
        assert [f.name for f in dataclasses.fields(SimulateRequest)] == [
            "n_photons", "seed", "policy", "fluorescence", "target_rel_error",
        ]
        # The record of a run names no engine and no RNG discipline
        # either (TestConfigValidation pins the TypeErrors).
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "n_photons", "seed", "policy", "fluorescence", "workers",
        ]

    @pytest.mark.parametrize("call, error, match", [
        (lambda scene: SimulationConfig(n_photons=1, accel="flat"),
         TypeError, "accel"),
        (lambda scene: SessionOptions(accel="flat"), TypeError, "accel"),
        (lambda scene: profile_scene(scene, accel="flat"), TypeError, "accel"),
        (lambda scene: VectorEngine(scene, accel="octree"),
         ValueError, r"\('auto', 'flat', 'linear'\)"),
    ], ids=["SimulationConfig", "SessionOptions", "profile_scene", "VectorEngine"])
    def test_no_accel_parameter(self, mini_scene, call, error, match):
        """The engine picks the accelerator: above it a leftover keyword
        is a loud TypeError, and the engine's own oracle seam names the
        two serving paths only."""
        with pytest.raises(error, match=match):
            call(mini_scene)
        assert not hasattr(repro.core, "ACCELS")

    @pytest.mark.parametrize("call, keyword", [
        (lambda scene: SharedConfig(n_photons=1, engine="vector"), "engine"),
        (lambda scene: SharedConfig(n_photons=1, batch_size=64), "batch_size"),
        (lambda scene: run_shared(scene, SharedConfig(n_photons=1), 1, arrays=None),
         "arrays"),
        (lambda scene: profile_scene(scene, engine="scalar"), "engine"),
        (lambda scene: profile_scene(scene, arrays=None), "arrays"),
    ], ids=["SharedConfig-engine", "SharedConfig-batch_size", "run_shared-arrays",
            "profile_scene-engine", "profile_scene-arrays"])
    def test_reproduction_tier_has_one_engine(self, mini_scene, call, keyword):
        """The paper's drivers trace only with the per-photon loop: the
        vector-engine keywords are gone, not ignored."""
        with pytest.raises(TypeError, match=keyword):
            call(mini_scene)

    def test_merge_builds_the_serving_config(self):
        """Every merged config is the vector engine on substreams."""
        request = SimulateRequest(
            n_photons=123, seed=0xBEEF, policy=SplitPolicy(threshold=2.5)
        )
        options = SessionOptions(workers=3)
        assert merge_config(request, options) == SimulationConfig(
            n_photons=123,
            seed=0xBEEF,
            policy=SplitPolicy(threshold=2.5),
            workers=3,
        )


class TestOneServingPath:
    def test_no_shim_or_config_splitter_remains(self):
        """The oracle is a function, not a one-shot simulator class, and
        nothing splits a config back into a request/options pair."""
        assert not [name for name in dir(repro.core) if name.endswith("Simulator")]
        assert {"run_scalar", "run_scalar_batches"} <= set(scalar.__all__)
        assert not {"run_scalar", "trace_photon"} & set(repro.core.__all__)
        assert not [name for name in dir(api) if name.startswith("split")]

    @pytest.mark.parametrize("run", [
        lambda scene, config: run_scalar(scene, config, rng="substream"),
        lambda scene, config: VectorEngine(scene).run(config),
    ], ids=["scalar", "vector"])
    def test_oracle_matches_session_bytes(self, mini_scene, run):
        """The scalar oracle under substreams, a bare vector engine and a
        session serve identical bytes."""
        request = SimulateRequest(n_photons=220, seed=0xC0FFEE)
        oracle = run(mini_scene, SimulationConfig(n_photons=220, seed=0xC0FFEE))
        with RenderSession(mini_scene) as session:
            served = session.simulate(request)
        assert forest_bytes(oracle) == forest_bytes(served)

    def test_session_api_is_warning_free(self, mini_scene):
        """The supported path must not trip the deprecation it recommends."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with RenderSession(mini_scene) as session:
                session.simulate(SimulateRequest(n_photons=20))


class TestSceneProgram:
    def test_compile_is_cached_per_scene(self, mini_scene):
        assert SceneProgram.compile(mini_scene) is SceneProgram.compile(mini_scene)

    def test_program_hashable(self, mini_scene):
        program = SceneProgram.compile(mini_scene)
        assert program in {program}

    def test_lazy_compile_defers_arrays(self, mini_scene):
        program = SceneProgram(mini_scene, eager=False)
        assert not program.compiled
        _ = program.arrays
        assert program.compiled

    def test_default_camera_travels_with_program(self, cornell):
        camera = SceneProgram.compile(cornell).default_camera
        assert set(camera) >= {"position", "look_at"}

    def test_compiled_scene_still_pickles(self):
        """The on-scene compile cache (locks + arrays) must not travel
        with the scene — spawn-start pools pickle their init args."""
        import pickle

        from tests.scenehelpers import build_mini_scene

        scene = build_mini_scene()
        SceneProgram.compile(scene)
        clone = pickle.loads(pickle.dumps(scene))
        assert not hasattr(clone, "_compiled_program")
        assert clone.name == scene.name
        assert len(clone.patches) == len(scene.patches)

    def test_program_cache_dies_with_scene(self):
        """No process-global table pins compiled scenes alive."""
        import gc
        import weakref

        from tests.scenehelpers import build_mini_scene

        scene = build_mini_scene()
        SceneProgram.compile(scene)
        ref = weakref.ref(scene)
        del scene
        gc.collect()
        assert ref() is None


class TestOpenSession:
    def test_accepts_registered_name(self):
        with RenderSession("cornell-box") as session:
            assert session.scene.name == "cornell-box"

    def test_sessions_are_constructed_directly(self):
        """``RenderSession(program, options)`` is the one way to open a
        session; the keyword-forwarding wrapper is gone."""
        assert not hasattr(api, "open_session")
