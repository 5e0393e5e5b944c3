"""RenderSession behaviour: warm reuse, plane sharing, crash hygiene.

The session's value is in what it does *not* do on request #2: no scene
recompile, no plane republish, no worker respawn.  These tests pin the
resource lifecycle — warm engines and pools are reused, concurrent
sessions on one program share the single segment the program publishes
and refcounts, and a crashed session still leaves ``/dev/shm`` clean
(the no-leak contract, reusing :func:`leaked_segments`).
"""

from __future__ import annotations

import json

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.core import forest_to_dict
from repro.core.fluorescence import FluorescenceSpec
from repro.parallel.shmplane import leaked_segments, plane_available

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


def forest_bytes(result) -> str:
    return json.dumps(forest_to_dict(result.forest), sort_keys=True)


def scene_segments() -> list:
    """Live *scene-plane* segments only.

    A live multi-process session also holds per-pool result blocks
    (``photon-plane-result-…``); the plane-sharing assertions are
    about the scene plane, so filter the result blocks out.  The
    after-close assertions keep using :func:`leaked_segments` raw — at
    close *nothing* of either kind may survive.
    """
    return [s for s in leaked_segments() if "-result-" not in s]


class TestWarmReuse:
    def test_equal_requests_equal_bytes(self, mini_scene):
        request = SimulateRequest(n_photons=250)
        with RenderSession(mini_scene) as session:
            first = session.simulate(request)
            second = session.simulate(request)
        assert forest_bytes(first) == forest_bytes(second)
        assert session.requests_served == 2

    def test_engine_object_reused_across_requests(self, mini_scene):
        with RenderSession(mini_scene) as session:
            session.simulate(SimulateRequest(n_photons=50))
            engine_once = session._engines[None]
            session.simulate(SimulateRequest(n_photons=50, seed=9))
            assert session._engines[None] is engine_once

    def test_fluorescence_is_per_request(self, mini_scene):
        """One warm session serves specs the engines bake in at build."""
        spec = FluorescenceSpec.simple(blue_to_green=0.5)
        with RenderSession(mini_scene) as session:
            plain = session.simulate(SimulateRequest(n_photons=200))
            fluor = session.simulate(
                SimulateRequest(n_photons=200, fluorescence=spec)
            )
            assert len(session._engines) == 2
        assert forest_bytes(plain) != forest_bytes(fluor)

    def test_render_uses_scene_default_camera(self, cornell):
        with RenderSession(cornell) as session:
            result = session.simulate(SimulateRequest(n_photons=200))
            image = session.render(result, width=16, height=12)
        assert image.shape == (12, 16, 3)

    def test_render_accepts_bare_forest(self, mini_scene):
        with RenderSession(mini_scene) as session:
            result = session.simulate(SimulateRequest(n_photons=100))
            via_result = session.render(result, width=8, height=6)
            via_forest = session.render(result.forest, width=8, height=6)
        assert (via_result == via_forest).all()

    def test_closed_session_refuses_requests(self, mini_scene):
        session = RenderSession(mini_scene)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.simulate(SimulateRequest(n_photons=1))
        session.close()  # idempotent

    def test_session_compiles_arrays_at_first_trace(self):
        # A fresh scene: the process-wide program cache would otherwise
        # hand back a program some earlier test already compiled.
        from tests.scenehelpers import build_mini_scene

        with RenderSession(build_mini_scene()) as session:
            assert not session.program.compiled
            session.simulate(SimulateRequest(n_photons=30))
            assert session.program.compiled


@needs_plane
class TestPlaneSharing:
    """One segment per program, refcounted by the program itself."""

    def test_registry_refcounts_one_segment(self, mini_scene):
        from repro.api import SceneProgram

        program = SceneProgram.compile(mini_scene)
        before = len(leaked_segments())
        h1 = program.acquire_plane()
        h2 = program.acquire_plane()
        assert h1.segment == h2.segment
        assert program.plane_refs == 2
        assert len(leaked_segments()) == before + 1
        program.release_plane()
        assert len(leaked_segments()) == before + 1  # still referenced
        program.release_plane()
        assert len(leaked_segments()) == before
        program.release_plane()  # over-release is a no-op, not a crash
        assert program.plane_refs == 0

    def test_concurrent_sessions_share_one_segment(self, mini_scene):
        """Two live multi-process sessions publish exactly one plane."""
        request = SimulateRequest(n_photons=120)
        options = SessionOptions(workers=2)
        with RenderSession(mini_scene, options) as one:
            with RenderSession(mini_scene, options) as two:
                a = one.simulate(request)
                b = two.simulate(request)
                assert one.program is two.program
                assert len(scene_segments()) == 1
        assert forest_bytes(a) == forest_bytes(b)
        assert leaked_segments() == []

    def test_pool_survives_across_requests(self, mini_scene):
        """Request #2 spawns nothing, recompiles nothing, republishes
        nothing: same pool, same compiled arrays, same scene segment."""
        options = SessionOptions(workers=2)
        with RenderSession(mini_scene, options) as session:
            session.simulate(SimulateRequest(n_photons=60))
            pool_once = session._pool
            arrays_once = session.program.arrays
            segment_once = scene_segments()
            assert len(segment_once) == 1
            session.simulate(SimulateRequest(n_photons=60, seed=3))
            assert session._pool is pool_once
            assert session.program.arrays is arrays_once
            assert scene_segments() == segment_once

    def test_one_pool_serves_every_fluorescence_spec(self, mini_scene):
        """Plain, fluorescent, plain again on one 2-worker session: each
        answer equals the single-process bytes, and the pool and its
        worker processes stay the same throughout — a spec change
        respawns nothing."""
        spec = FluorescenceSpec.simple(blue_to_green=0.5)
        requests = [
            SimulateRequest(n_photons=240, seed=11),
            SimulateRequest(n_photons=240, seed=11, fluorescence=spec),
            SimulateRequest(n_photons=240, seed=11),
        ]
        with RenderSession(mini_scene) as single:
            expected = [forest_bytes(single.simulate(r)) for r in requests]
        assert expected[0] != expected[1]
        with RenderSession(mini_scene, SessionOptions(workers=2)) as session:
            served, pools, pids = [], [], []
            for request in requests:
                served.append(forest_bytes(session.simulate(request)))
                pools.append(session._pool)
                pids.append(set(session._pool._pool._executor._processes))
            assert served == expected
            assert pools[0] is pools[1] is pools[2]
            assert len(pids[0]) == 2
            assert pids[0] == pids[1] == pids[2]
        assert leaked_segments() == []


@needs_plane
class TestCrashHygiene:
    def test_crashed_session_leaves_shm_clean(self, mini_scene):
        """A request that raises mid-session must not leak its segment."""
        options = SessionOptions(workers=2)
        with pytest.raises(RuntimeError, match="frontend blew up"):
            with RenderSession(mini_scene, options) as session:
                session.simulate(SimulateRequest(n_photons=60))
                assert len(scene_segments()) == 1
                raise RuntimeError("frontend blew up")
        assert leaked_segments() == []

    def test_failing_request_then_cleanup(self, mini_scene):
        """A bad request raises inside serve; teardown still releases."""
        options = SessionOptions(workers=2)
        with pytest.raises(ValueError):
            with RenderSession(mini_scene, options) as session:
                session.simulate(SimulateRequest(n_photons=60))
                session.simulate_stream(
                    SimulateRequest(n_photons=60), batch_size=0
                ).__next__()
        assert leaked_segments() == []
