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

import dataclasses
import json
import tracemalloc

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE
from repro.core import forest_to_dict, vectorized
from repro.core.convergence import forest_error_summary
from repro.core.vectorized import VectorEngine
from repro.parallel.shmplane import plane_available
from tests.core.test_wave import spy_widths
from tests.parallel.test_procpool import spy_shard_jobs


needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


def forest_bytes(result) -> str:
    return json.dumps(forest_to_dict(result.forest), sort_keys=True)


def assert_counts_describe_the_forest(result) -> None:
    """*result*'s trace counts are those of the photons its forest holds:
    one emission tally per photon, one tally per reflection, and every
    photon ending in exactly one way."""
    stats, forest = result.stats, result.forest
    assert stats.photons == forest.photons_emitted
    assert stats.photons + stats.reflections == forest.total_tallies
    assert (
        stats.escapes + stats.absorptions + stats.bounce_limit_hits
        == stats.photons
    )


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

    @needs_plane
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


class TestStreamIsOneWave:
    """In process a stream traces its budget as the one-shot request's
    wave: chunk boundaries only report the forest, so the stream pays one
    bounce tail, not one per chunk.  Restarting the trace at every chunk,
    these streams made 27, 124 and 44 ``closest_hit`` calls against the
    one-shot's 11, 19 and 19."""

    @pytest.mark.parametrize(
        "n, chunk", [(750, 250), (10_000, 1_000), (10_000, None)]
    )
    def test_stream_makes_the_one_shot_closest_hit_calls(
        self, cornell, n, chunk
    ):
        request = SimulateRequest(n_photons=n)
        with RenderSession(cornell, SessionOptions(workers=1)) as session:
            widths = spy_widths(session._engine_for(None))
            one_shot = forest_bytes(session.simulate(request))
            one_shot_calls = len(widths)
            widths.clear()
            *_, last = session.simulate_stream(request, chunk)
        assert len(widths) == one_shot_calls, widths
        assert forest_bytes(last) == one_shot


@needs_plane
class TestPooledStreamIsOneShardSet:
    """On a pool a stream traces its budget as the one-shot request's
    shard set, one shard per worker: chunk boundaries only report the
    forest, so the stream pays one tail per worker, not one per chunk.
    Tracing a shard set per chunk, these streams submitted 6, 20 and 6
    shard jobs against the one-shot's 2."""

    @pytest.mark.parametrize(
        "n, chunk", [(750, 250), (10_000, 1_000), (10_000, None)]
    )
    def test_stream_submits_the_one_shot_shard_jobs(self, cornell, n, chunk):
        request = SimulateRequest(n_photons=n)
        with RenderSession(cornell, SessionOptions(workers=2)) as session:
            session.simulate(SimulateRequest(n_photons=1))  # start the pool
            jobs = spy_shard_jobs(session._pool)
            one_shot = forest_bytes(session.simulate(request))
            one_shot_jobs = len(jobs)
            jobs.clear()
            *_, last = session.simulate_stream(request, chunk)
        assert one_shot_jobs == 2
        assert len(jobs) == one_shot_jobs, jobs
        assert forest_bytes(last) == one_shot


#: (wave width, ``None`` for :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`;
#: chunk; budget): chunks that divide the width, that do not, and that
#: exceed it.
REPORT_POINTS = [
    pytest.param(None, 333, 9_000, id="333-of-4096"),
    pytest.param(None, 4_096, 9_000, id="4096-of-4096"),
    pytest.param(None, 5_000, 9_000, id="5000-of-4096"),
    pytest.param(64, 7, 300, id="7-of-64"),
    pytest.param(64, 32, 300, id="32-of-64"),
]


#: Worker counts a stream is checked on: the engine, and a pool where
#: shared memory exists.
STREAM_WORKERS = (1, 2) if plane_available() else (1,)


class TestReportPoints:
    """Every yield of a stream is an exact prefix: its forest and its
    trace counts are a cold :meth:`~repro.api.RenderSession.simulate` of
    the photons it holds, and a target stream stops at the check point
    ``simulate`` stops at, on the engine and on a pool alike."""

    @pytest.mark.parametrize("targeted", [False, True], ids=["plain", "target"])
    @pytest.mark.parametrize("width, chunk, n", REPORT_POINTS)
    def test_every_yield_is_a_cold_prefix(
        self, monkeypatch, cornell, width, chunk, n, targeted
    ):
        if width is not None:
            monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", width)
        check = vectorized.PHOTONS_IN_FLIGHT
        with RenderSession(cornell) as cold:
            prefixes = {}

            def prefix(photons):
                if photons not in prefixes:
                    prefixes[photons] = cold.simulate(
                        SimulateRequest(n_photons=photons)
                    )
                return prefixes[photons]

            target = None
            if targeted:
                # Between the first two check points' errors: a cold
                # request stops at the second one.
                first, second = (
                    forest_error_summary(
                        prefix(k * check).forest
                    ).median_relative_error
                    for k in (1, 2)
                )
                assert second < first
                target = (first + second) / 2
            request = SimulateRequest(n_photons=n, target_rel_error=target)
            one_shot = cold.simulate(request)
            assert one_shot.config.n_photons == (2 * check if targeted else n)

            for workers in STREAM_WORKERS:
                seen = []
                options = SessionOptions(workers=workers)
                with RenderSession(cornell, options) as session:
                    for result in session.simulate_stream(request, chunk):
                        assert not KERNEL_GATE.locked()
                        assert_counts_describe_the_forest(result)
                        forest = result.forest
                        seen.append((
                            forest.photons_emitted, forest.leaf_count,
                            forest.total_tallies, forest_bytes(result), result,
                        ))
                *progress, (_, _, _, final_bytes, last) = seen
                for photons, leaves, tallies, got, result in progress:
                    assert photons % chunk == 0
                    want = prefix(photons)
                    assert (leaves, tallies) == (
                        want.forest.leaf_count, want.forest.total_tallies
                    )
                    assert got == forest_bytes(want)
                    # Read after the stream: a yield keeps its own counts.
                    assert result.stats == want.stats
                assert [p[0] for p in progress] == list(
                    range(chunk, one_shot.config.n_photons, chunk)
                )
                assert final_bytes == forest_bytes(one_shot)
                assert last.stats == one_shot.stats
                assert last.config == dataclasses.replace(
                    one_shot.config, workers=workers
                )
                assert last.achieved_rel_error == one_shot.achieved_rel_error

    def test_report_points_take_no_memory_up_front(self, cornell):
        """Each report point is worked out as the wave reaches it: a budget
        of two million photons in one-photon chunks yields its first chunk
        in the memory of a small one (a list of its report points would
        hold two million ints, about 100 MB under tracemalloc)."""
        request = SimulateRequest(n_photons=2_000_000)
        with RenderSession(cornell, SessionOptions(workers=1)) as session:
            session._engine_for(None)
            stream = session.simulate_stream(request, batch_size=1)
            tracemalloc.start()
            try:
                first = next(stream)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                stream.close()
        assert first.forest.photons_emitted == 1
        assert peak < 16 * 2**20, peak
