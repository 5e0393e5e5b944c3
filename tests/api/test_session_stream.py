"""simulate_stream parity: cumulative streaming may not move a byte.

The streaming surface re-chunks the photon budget, so the one property
that matters is that chunking is invisible: on a scene each side of
the engine's accelerator choice, at any chunk size and wave width
(and for a warm multi-process pool), the final cumulative
result of ``simulate_stream`` serialises byte-for-byte identical to the
one-shot ``simulate`` of the same request — the canonical
(photon, bounce) tally order makes chunk boundaries unobservable.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.core import forest_to_dict, vectorized
from repro.core.vectorized import VectorEngine
from repro.parallel.shmplane import plane_available


def forest_bytes(result) -> str:
    return json.dumps(forest_to_dict(result.forest), sort_keys=True)


REQUEST = SimulateRequest(n_photons=230, seed=0xC0FFEE)

#: Every surface the stream serves single-process: (wave width, ``None``
#: for :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`, scene fixture,
#: the accelerator the engine picks on that scene).
SURFACES = [
    pytest.param(None, "mini_scene", "linear", id="vector-linear"),
    pytest.param(7, "mini_scene", "linear", id="vector-linear-b7"),
    pytest.param(None, "harpsichord", "flat", id="vector-flat"),
]


class TestStreamParity:
    @pytest.mark.parametrize("width, scene_fixture, accel", SURFACES)
    def test_final_stream_equals_one_shot(
        self, request, monkeypatch, width, scene_fixture, accel
    ):
        if width is not None:
            monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", width)
        scene = request.getfixturevalue(scene_fixture)
        with RenderSession(scene) as session:
            assert VectorEngine(arrays=session.program.arrays).accel == accel
            one_shot = session.simulate(REQUEST)
            last = None
            for last in session.simulate_stream(REQUEST, batch_size=71):
                pass
        assert last is not None
        assert forest_bytes(last) == forest_bytes(one_shot)

    @pytest.mark.parametrize("chunk", [1, 37, 230, 1000])
    def test_chunk_size_is_unobservable(self, mini_scene, chunk):
        with RenderSession(mini_scene) as session:
            one_shot = session.simulate(REQUEST)
            *_, last = session.simulate_stream(REQUEST, batch_size=chunk)
        assert forest_bytes(last) == forest_bytes(one_shot)

    @pytest.mark.skipif(
        not plane_available(), reason="no multiprocessing.shared_memory here"
    )
    def test_stream_on_warm_pool(self, mini_scene):
        """Multi-process streaming matches the pool's one-shot answer."""
        options = SessionOptions(workers=2)
        with RenderSession(mini_scene, options) as session:
            one_shot = session.simulate(REQUEST)
            *_, last = session.simulate_stream(REQUEST, batch_size=64)
        assert forest_bytes(last) == forest_bytes(one_shot)


class TestStreamShape:
    def test_yield_count_and_growth(self, mini_scene):
        with RenderSession(mini_scene) as session:
            results = list(session.simulate_stream(REQUEST, batch_size=100))
        assert len(results) == 3  # 100 + 100 + 30
        tallies = [r.forest.total_tallies for r in results]
        assert tallies == sorted(tallies)
        assert results[-1].forest.photons_emitted == REQUEST.n_photons

    def test_stream_counts_as_one_request(self, mini_scene):
        with RenderSession(mini_scene) as session:
            list(session.simulate_stream(REQUEST, batch_size=100))
            assert session.requests_served == 1

    def test_zero_photon_stream_yields_one_empty_result(self, mini_scene):
        """Even an empty budget honours the final-yield contract."""
        request = SimulateRequest(n_photons=0)
        with RenderSession(mini_scene) as session:
            one_shot = session.simulate(request)
            *_, last = session.simulate_stream(request)
        assert last.forest.total_tallies == 0
        assert forest_bytes(last) == forest_bytes(one_shot)

    @pytest.mark.parametrize("batch_size", [2.5, True], ids=["float", "bool"])
    def test_non_int_batch_size_raises_at_the_call(self, mini_scene, batch_size):
        """``2.5`` would fail only at the first ``next()``, after the
        request was counted; ``True`` would stream one photon a chunk."""
        with RenderSession(mini_scene) as session:
            with pytest.raises(TypeError, match="batch_size must be an int"):
                session.simulate_stream(REQUEST, batch_size=batch_size)
            assert session.requests_served == 0
            *_, last = session.simulate_stream(REQUEST, batch_size=100)
            assert session.requests_served == 1
        assert last.forest.photons_emitted == REQUEST.n_photons
