"""Golden answerfile regression: the physics may not drift silently.

Small fixed simulations are pinned byte-for-byte against committed
answerfiles (see ``tests/data/regenerate.py``).  The substream goldens
are *engine-independent*: the scalar oracle, the vector engine, and the
process-pool backend must all serialise to exactly the committed bytes.
A legacy single-stream golden pins the historical scalar behaviour too.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import RenderSession, SceneProgram, SimulateRequest
from repro.cli import main as cli_main
from repro.core import save_answer, vectorized
from repro.core.vectorized import VectorEngine
from repro.paper.scalar import run_scalar
from repro.parallel.procpool import PhotonPool
from repro.parallel.shmplane import plane_available
from tests.data.regenerate import DATA_DIR, GOLDEN_PHOTONS, GOLDEN_SEED, golden_config

import io

SCENE_FIXTURES = {
    "cornell-box": "cornell",
    "computer-lab": None,  # full scene, via the `scenes` session fixture
    "harpsichord-room": "harpsichord",
    # The generated corpus representative: its committed golden pins the
    # procedural generator's layout (seed, jitter draw order) together
    # with the engines — regenerate after *intentional* generator bumps.
    "gen-office-64": "office64",
}


def golden_bytes(name: str) -> bytes:
    path = DATA_DIR / name
    assert path.exists(), f"golden {name} missing — run tests/data/regenerate.py"
    return path.read_bytes()


def scene_for(request, scene_name: str):
    fixture = SCENE_FIXTURES[scene_name]
    if fixture is not None:
        return request.getfixturevalue(fixture)
    return request.getfixturevalue("scenes")[scene_name]


def answer_bytes(result, tmp_path: Path) -> bytes:
    out = tmp_path / "answer.json"
    save_answer(result.forest, out)
    return out.read_bytes()


def simulate_bytes(scene, rng: str, tmp_path: Path) -> bytes:
    return answer_bytes(run_scalar(scene, golden_config(), rng=rng), tmp_path)


def pool_bytes(scene, config, tmp_path: Path) -> bytes:
    """*config* traced on a fresh process pool over *scene*."""
    with PhotonPool(SceneProgram.compile(scene), config) as pool:
        return answer_bytes(pool.run(), tmp_path)


needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


class TestSubstreamGoldens:
    """Both engines (and the pool) reproduce the committed bytes."""

    @pytest.mark.parametrize("scene_name", sorted(SCENE_FIXTURES))
    def test_scalar_engine(self, request, tmp_path, scene_name):
        scene = scene_for(request, scene_name)
        got = simulate_bytes(scene, "substream", tmp_path)
        assert got == golden_bytes(f"{scene_name}.substream.answer.json")

    @pytest.mark.parametrize("scene_name", sorted(SCENE_FIXTURES))
    def test_vector_engine(self, request, tmp_path, scene_name):
        scene = scene_for(request, scene_name)
        with RenderSession(scene) as session:
            result = session.simulate(
                SimulateRequest(n_photons=GOLDEN_PHOTONS, seed=GOLDEN_SEED)
            )
        got = answer_bytes(result, tmp_path)
        assert got == golden_bytes(f"{scene_name}.substream.answer.json")

    @pytest.mark.parametrize("accel", ["flat", "linear"])
    @pytest.mark.parametrize("scene_name", sorted(SCENE_FIXTURES))
    def test_vector_engine_accels(self, request, tmp_path, scene_name, accel):
        """Both serving paths land on the committed bytes on every scene,
        whichever one the engine would pick there (the engine-level seam:
        no config names an accelerator)."""
        scene = scene_for(request, scene_name)
        result = VectorEngine(scene, accel=accel).run(golden_config())
        assert answer_bytes(result, tmp_path) == golden_bytes(
            f"{scene_name}.substream.answer.json"
        )

    @needs_plane
    def test_procpool(self, request, tmp_path, monkeypatch):
        """The multi-process backend hits the same bytes, its workers
        tracing waves far narrower than the budget."""
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 64)
        scene = scene_for(request, "cornell-box")
        config = replace(golden_config(), workers=3)
        assert pool_bytes(scene, config, tmp_path) == golden_bytes(
            "cornell-box.substream.answer.json"
        )

    @needs_plane
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_procpool_generated_scene(
        self, request, tmp_path, monkeypatch, workers
    ):
        """Every worker count shards the generated corpus scene onto the
        identical committed bytes (the gen: bit-reproducibility claim,
        transport edition)."""
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 96)
        scene = scene_for(request, "gen-office-64")
        config = replace(golden_config(), workers=workers)
        assert pool_bytes(scene, config, tmp_path) == golden_bytes(
            "gen-office-64.substream.answer.json"
        )


class TestLegacyStreamGolden:
    def test_scalar_single_stream(self, request, tmp_path):
        scene = scene_for(request, "cornell-box")
        got = simulate_bytes(scene, "stream", tmp_path)
        assert got == golden_bytes("cornell-box.stream.answer.json")


class TestCliGolden:
    """`repro simulate` serves the request on the vector engine and lands
    on the substream golden, the bytes the scalar oracle writes, with the
    default flags, one wave for the whole budget, or a worker pool (wave
    widths set through ``PHOTONS_IN_FLIGHT``, which no flag names)."""

    @pytest.mark.parametrize(
        "extra, width",
        [
            ([], None),
            ([], 100_000),
            (["--workers", "2"], 128),
            (["--workers", "2"], None),
        ],
        ids=["vector", "vector-one-batch", "vector-procpool",
             "vector-procpool-plane"],
    )
    def test_simulate_matches_golden(
        self, request, tmp_path, monkeypatch, extra, width
    ):
        if width is not None:
            monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", width)
        out = tmp_path / "cli.json"
        rc = cli_main(
            [
                "simulate", "cornell-box",
                "--photons", str(GOLDEN_PHOTONS),
                "--seed", hex(GOLDEN_SEED),
                "--out", str(out),
                *extra,
            ],
            out=io.StringIO(),
        )
        assert rc == 0
        got = out.read_bytes()
        assert got == golden_bytes("cornell-box.substream.answer.json")
        scene = scene_for(request, "cornell-box")
        assert got == simulate_bytes(scene, "substream", tmp_path)
