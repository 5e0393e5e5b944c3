"""The session reentrancy guard: one request at a time, loudly.

A :class:`~repro.api.RenderSession` owns warm single-request state
(engines, worker pools, the result cache), so concurrent use would
corrupt it silently.  The guard turns that latent data race into an
immediate ``RuntimeError`` naming the in-flight request — and, because
``simulate_stream`` hands out an iterator, the guard is *held* for the
stream's whole life and released however it ends: exhaustion, early
``close()`` (the client-disconnect path), or an error.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import RenderSession, SimulateRequest

REQUEST = SimulateRequest(n_photons=400, seed=0xC0FFEE)
SMALL = SimulateRequest(n_photons=40, seed=7)


class TestThreadedGuard:
    def test_concurrent_simulate_raises(self, mini_scene):
        """The race regression: overlapping simulate() calls, two threads."""
        with RenderSession(mini_scene) as session:
            started = threading.Event()
            errors: list[BaseException] = []

            def tracer():
                started.set()
                session.simulate(REQUEST)

            worker = threading.Thread(target=tracer)
            worker.start()
            started.wait(10.0)
            # Wait until the tracer actually holds the guard (it may be
            # a few instructions past set()); then a second request on
            # the same session must be refused, not interleaved.
            deadline = time.monotonic() + 10.0
            raised = False
            while time.monotonic() < deadline:
                try:
                    session.simulate(SMALL)
                except RuntimeError as exc:
                    assert "already serving" in str(exc)
                    raised = True
                    break
                # The tracer finished before we overlapped; harmless but
                # proves nothing — only stop once we truly overlapped.
                if not worker.is_alive():
                    break
            worker.join(30.0)
            assert not errors
            if raised:
                # The session must be fully usable after the refusal.
                session.simulate(SMALL)

    def test_two_streams_one_wins(self, mini_scene):
        """Two threads open streams at once: exactly one succeeds.

        Deterministic regardless of interleaving — the guard is taken
        when ``simulate_stream`` *returns* and neither thread closes its
        stream, so whichever call lands second must raise.
        """
        with RenderSession(mini_scene) as session:
            barrier = threading.Barrier(2)
            outcomes: list[object] = []

            def opener():
                barrier.wait(10.0)
                try:
                    outcomes.append(session.simulate_stream(SMALL, 16))
                except RuntimeError as exc:
                    outcomes.append(exc)

            threads = [threading.Thread(target=opener) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            errors = [o for o in outcomes if isinstance(o, RuntimeError)]
            streams = [o for o in outcomes if not isinstance(o, RuntimeError)]
            assert len(errors) == 1 and len(streams) == 1
            assert "already serving simulate_stream()" in str(errors[0])
            streams[0].close()
            # Guard released by close(): the session serves again.
            session.simulate(SMALL)


class TestStreamHoldsGuard:
    def test_open_stream_blocks_simulate(self, mini_scene):
        with RenderSession(mini_scene) as session:
            stream = session.simulate_stream(REQUEST, 64)
            next(stream)
            with pytest.raises(RuntimeError, match="already serving"):
                session.simulate(SMALL)
            with pytest.raises(RuntimeError, match="already serving"):
                session.simulate_stream(SMALL)
            stream.close()
            session.simulate(SMALL)

    def test_exhaustion_releases(self, mini_scene):
        with RenderSession(mini_scene) as session:
            for _ in session.simulate_stream(SMALL, 16):
                pass
            session.simulate(SMALL)

    def test_unstarted_stream_close_releases(self, mini_scene):
        """close() before the first next() must still free the session.

        The classic trap: a *generator* that has never run does not
        execute its ``finally`` on close, so the guard cannot live in
        one — this pins the explicit-iterator design.
        """
        with RenderSession(mini_scene) as session:
            stream = session.simulate_stream(SMALL, 16)
            stream.close()
            session.simulate(SMALL)

    def test_validation_failure_leaves_session_free(self, mini_scene):
        with RenderSession(mini_scene) as session:
            with pytest.raises(ValueError):
                session.simulate_stream(SMALL, 0)
            session.simulate(SMALL)

    def test_close_is_idempotent(self, mini_scene):
        with RenderSession(mini_scene) as session:
            stream = session.simulate_stream(SMALL, 16)
            next(stream)
            stream.close()
            stream.close()
            session.simulate(SMALL)
