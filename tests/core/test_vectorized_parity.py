"""Scalar <-> vector engine parity: the vector fast path is locked to the
scalar ``trace_photon`` oracle tally-for-tally.

Both engines run the same photons on the same per-photon counter-based
substreams, so the bin forests must agree **exactly** — every tree, every
node, every band count — and so must every ``TraceStats`` counter.  Any
drift in the vectorized physics (draw order, expression order, tie
rules) fails these tests deterministically, not statistically.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RenderSession, SimulateRequest
from repro.core import (
    FluorescenceSpec,
    SimulationConfig,
    SplitPolicy,
    forest_to_dict,
    photon_substream,
)
from repro.core import vectorized
from repro.core.vectorized import (
    MAX_PHOTONS,
    VectorEngine,
    substream_states,
)
from repro.geometry import Patch, Scene, Vec3
from repro.paper.scalar import run_scalar, trace_photon
from repro.scenes import cornell_box
from tests.scenehelpers import build_mini_scene

FLUOR = FluorescenceSpec.simple(
    blue_to_green=0.4, green_to_red=0.35, blue_to_red=0.1
)


def run_engine(
    scene, engine: str, batch_size=None, **kwargs
) -> tuple[dict, object]:
    """Simulate with *engine* under substream RNG; (forest dict, stats).

    The scalar side is the oracle loop; the vector side is served by a
    session, the one serving path, or with a *batch_size* by an engine
    that wide (the engine-level seam: no session option sizes a wave).
    """
    if engine == "scalar":
        result = run_scalar(scene, SimulationConfig(**kwargs), rng="substream")
    elif batch_size is not None:
        config = SimulationConfig(**kwargs)
        engine = VectorEngine(
            scene, fluorescence=config.fluorescence, batch_size=batch_size
        )
        result = engine.run(config)
    else:
        with RenderSession(scene) as session:
            result = session.simulate(SimulateRequest(**kwargs))
    result.forest.check_invariants()
    return forest_to_dict(result.forest), result.stats


def assert_parity(scene, **kwargs) -> None:
    """The vector engine must reproduce the scalar oracle exactly."""
    scalar_forest, scalar_stats = run_engine(scene, "scalar", **kwargs)
    vector_forest, vector_stats = run_engine(scene, "vector", **kwargs)
    assert vector_stats == scalar_stats
    assert vector_forest == scalar_forest


SCENE_FIXTURES = ("cornell", "lab_small", "harpsichord", "office64")


class TestSceneParity:
    """Tally-for-tally parity on the dissertation scenes plus the
    generated corpus representative (gen:office-64)."""

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize("seed", [0x1234ABCD330E, 0xC0FFEE])
    def test_default_policy(self, request, scene_fixture, seed):
        scene = request.getfixturevalue(scene_fixture)
        assert_parity(scene, n_photons=400, seed=seed)

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize("sigma", [2.0, 4.0])
    def test_sigma_policies(self, request, scene_fixture, sigma):
        scene = request.getfixturevalue(scene_fixture)
        assert_parity(
            scene,
            n_photons=300,
            seed=0xBEEF,
            policy=SplitPolicy(threshold=sigma, min_count=8),
        )

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_fluorescence(self, request, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        assert_parity(scene, n_photons=300, seed=7, fluorescence=FLUOR)

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_batch_size_invariance(self, request, scene_fixture):
        """The wave width must never leak into the answer: a 37-lane
        engine serves a session's bytes."""
        scene = request.getfixturevalue(scene_fixture)
        small = run_engine(scene, "vector", n_photons=300, seed=3, batch_size=37)
        served = run_engine(scene, "vector", n_photons=300, seed=3)
        assert small == served

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    @pytest.mark.parametrize("accel", ["flat", "linear"])
    def test_accel_modes_match_scalar(self, request, scene_fixture, accel):
        """Both serving paths reproduce the scalar oracle on every scene,
        not only on the side of the threshold where the engine picks them."""
        scene = request.getfixturevalue(scene_fixture)
        scalar_forest, scalar_stats = run_engine(scene, "scalar", n_photons=350, seed=11)
        config = SimulationConfig(n_photons=350, seed=11)
        result = VectorEngine(scene, accel=accel).run(config)
        result.forest.check_invariants()
        assert result.stats == scalar_stats
        assert forest_to_dict(result.forest) == scalar_forest

    def test_cornell_moved_out_and_shrunk(self):
        """The cornell box shrunk 1e-3 and moved 1e4 out: the screened
        scan's margins grow with the origins' magnitude and shrink with
        the patches, and every pair it drops must still be one the exact
        test rejects, so the whole answer stays the oracle's."""
        far = Vec3(1e4, 1e4, 1e4)
        scene = Scene([
            Patch(p.p0 * 1e-3 + far, p.eu * 1e-3, p.ev * 1e-3, p.material,
                  name=p.name)
            for p in cornell_box().patches
        ], name="cornell-moved")
        assert VectorEngine(scene).accel == "linear"
        assert_parity(scene, n_photons=3000)


class TestPropertyParity:
    """Hypothesis sweep over seeds, budgets and wave widths (mini box)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**48 - 1),
        n_photons=st.integers(min_value=0, max_value=120),
        batch_size=st.integers(min_value=1, max_value=64),
        fluor=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_seed(self, seed, n_photons, batch_size, fluor):
        scene = type(self)._scene
        kwargs = dict(
            n_photons=n_photons,
            seed=seed,
            fluorescence=FLUOR if fluor else None,
        )
        scalar = run_engine(scene, "scalar", **kwargs)
        vector = run_engine(scene, "vector", batch_size=batch_size, **kwargs)
        assert vector == scalar

    _scene = None

    @pytest.fixture(autouse=True)
    def _bind_scene(self, mini_scene):
        type(self)._scene = mini_scene


class TestSubstreams:
    """The counter-based substream helpers agree with the scalar forks."""

    def test_states_match_scalar_forks(self):
        states = substream_states(0xC0FFEE, 5, 40)
        for i, state in enumerate(states.tolist()):
            assert state == photon_substream(0xC0FFEE, 5 + i).state

    def test_streams_are_disjoint_draws(self, mini_scene):
        """Adjacent photons never consume overlapping variates."""
        rng = photon_substream(1, 0)
        trace_photon(mini_scene, rng)
        assert rng.draws < (1 << 20)

    def test_empty_range(self):
        assert substream_states(1, 0, 0).size == 0

    def test_substreams_repeat_after_max_photons(self):
        """Photon *i* + ``MAX_PHOTONS`` starts where photon *i* does, one
        2**48 period later, so no request holds more photons."""
        assert MAX_PHOTONS == 2**28
        for seed in (0, 0xC0FFEE):
            assert substream_states(seed, 5 + MAX_PHOTONS, 1).tolist() == (
                substream_states(seed, 5, 1).tolist()
            )
            assert substream_states(seed, 4 + MAX_PHOTONS, 1).tolist() != (
                substream_states(seed, 5, 1).tolist()
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**48, 2**49)),
        start=st.integers(0, 2**40),
        count=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 300)),
    )
    def test_doubling_matches_scalar_forks(self, seed, start, count):
        """Every state of the log-step construction is the scalar fork's,
        for seeds wider than the 48-bit modulus and ragged counts."""
        states = substream_states(seed, start, count)
        assert states.dtype == np.uint64 and states.shape == (count,)
        assert states.tolist() == [
            photon_substream(seed, start + i).state for i in range(count)
        ]

    def test_numpy_integer_arguments(self):
        """A NumPy seed must not drag the recurrence into wrapping int64."""
        seed = 2**40 + 12345
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = substream_states(np.int64(seed), np.int64(7), np.int32(100))
        assert got.tolist() == substream_states(seed, 7, 100).tolist()


class TestEmissionParity:
    """Batched emission mirrors emit_photon record-for-record."""

    def test_emit_range_bit_exact(self, harpsichord):
        from repro.paper.physics import emit_photon

        engine = VectorEngine(harpsichord)
        batch = engine.emit_range(0xFACE, 10, 64)
        for j in range(64):
            rng = photon_substream(0xFACE, 10 + j)
            record = emit_photon(harpsichord, rng)
            assert int(batch.patch[j]) == record.patch_id
            assert batch.s[j] == record.s
            assert batch.t[j] == record.t
            assert batch.theta[j] == record.theta
            assert batch.r2[j] == record.r_squared
            assert int(batch.band[j]) == record.photon.band
            assert batch.px[j] == record.photon.position.x
            assert batch.dy[j] == record.photon.direction.y
            assert int(batch.states[j]) == rng.state


class TestIntersectionPruning:
    """Candidate selection (the flat walk) must not change any answer
    relative to the dense scan."""

    @pytest.mark.parametrize("scene_fixture", SCENE_FIXTURES)
    def test_accels_equal_dense(self, request, scene_fixture):
        scene = request.getfixturevalue(scene_fixture)
        results = {}
        for accel in ("linear", "flat"):
            engine = VectorEngine(scene, batch_size=128, accel=accel)
            events, stats = engine.trace_range(0xAB, 0, 250)
            events = events.sorted_canonical()
            results[accel] = (
                [a.tolist() for a in (events.gidx, events.seq, events.patch,
                                      events.s, events.t, events.theta,
                                      events.r2, events.band)],
                stats,
            )
        assert results["flat"] == results["linear"]


class TestConfigValidation:
    """The config names no engine and no RNG discipline: the vector
    engine traces every config on substreams, and only the scalar
    oracle takes a discipline, as an argument."""

    def test_rng_mode_keyword_is_gone(self):
        with pytest.raises(TypeError, match="rng_mode"):
            SimulationConfig(n_photons=1, rng_mode="stream")

    def test_engine_keyword_is_gone(self):
        with pytest.raises(TypeError, match="engine"):
            SimulationConfig(n_photons=1, engine="vector")

    def test_oracle_rng_argument(self, mini_scene):
        config = SimulationConfig(n_photons=30, seed=9)
        default = forest_to_dict(run_scalar(mini_scene, config).forest)
        stream = forest_to_dict(run_scalar(mini_scene, config, rng="stream").forest)
        assert default == stream
        for unknown in ("auto", "gpu"):
            with pytest.raises(ValueError, match="unknown rng"):
                run_scalar(mini_scene, config, rng=unknown)


class TestLibmHelpers:
    """The libm helpers equal their per-element comprehension forms, byte
    for byte: the same ``math`` calls, only the array build differs."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(2024)
        signed = np.array([0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300])
        return [
            (rng.normal(size=257), rng.normal(size=257)),
            (signed, signed[::-1].copy()),
            (np.empty(0), np.empty(0)),
        ]

    def test_atan2_theta(self):
        for ly, lx in self._cases():
            vals = [math.atan2(b, a) for a, b in zip(lx.tolist(), ly.tolist())]
            theta = np.array(vals, dtype=np.float64)
            want = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
            got = vectorized._atan2_theta(ly, lx)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_pow_scalar(self):
        for base, exponent in self._cases():
            base, exponent = np.abs(base), np.abs(exponent) * 7.0
            want = np.array([a ** b for a, b in zip(base.tolist(), exponent.tolist())],
                            dtype=np.float64)
            got = vectorized._pow_scalar(base, exponent)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_sincos_scalar(self):
        for phi, _ in self._cases():
            phi = phi * 40.0
            s, c = vectorized._sincos_scalar(phi)
            assert s.tobytes() == np.array([math.sin(v) for v in phi.tolist()],
                                           dtype=np.float64).tobytes()
            assert c.tobytes() == np.array([math.cos(v) for v in phi.tolist()],
                                           dtype=np.float64).tobytes()
