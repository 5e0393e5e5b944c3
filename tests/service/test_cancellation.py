"""Mid-stream cancellation: abandoned streams free their session.

The paper's viewing programs detach whenever a user closes a window —
the serving tier's equivalent is a client dropping a progressive
response mid-stream.  The contract: closing (or abandoning) a stream
releases the session's reentrancy guard, the session returns to its
pool *reusable*, and ``/dev/shm`` stays exactly as refcounted as before
— zero leaked segments, at session level and through HTTP.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE
from repro.core import forest_to_dict
from repro.parallel import procpool
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.service import ServiceConfig, ServiceThread, simulate_path

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)

REQUEST = SimulateRequest(n_photons=600, seed=0xD15C)

#: How long a held-back shard waits before it traces: far longer than
#: its sibling takes to land.
LATE_SHARD_S = 0.5


def _late_shard(delay: float, *job):
    """A pooled shard job that starts tracing *delay* seconds late."""
    time.sleep(delay)
    return procpool._trace_shard_pooled(*job)


class TestSessionLevel:
    def test_closed_stream_releases_session(self, mini_scene):
        with RenderSession(mini_scene) as session:
            stream = session.simulate_stream(REQUEST, 64)
            next(stream)
            assert not KERNEL_GATE.locked()
            next(stream)
            assert not KERNEL_GATE.locked()
            stream.close()
            # The session serves again, and determinism holds: the
            # abandoned stream perturbed nothing.
            full = session.simulate(REQUEST)
            assert full.forest.photons_emitted == 600

    def test_closing_a_stream_mid_wave_frees_the_session(self, cornell):
        """In process a stream is one wave, suspended at each report
        point with lanes still in flight and no kernel section held.
        Closed there, it leaves the session free, and the session's next
        request answers the cold bytes."""
        request = SimulateRequest(n_photons=3_000, seed=0xD15C)
        with RenderSession(cornell) as session:
            stream = session.simulate_stream(request, 500)
            for _ in range(2):
                partial = next(stream)
                assert not KERNEL_GATE.locked()
            # The wave has emitted photons past the report point.
            assert partial.forest.photons_emitted == 1_000
            assert partial.stats.photons > 1_000
            stream.close()
            assert not KERNEL_GATE.locked()
            again = session.simulate(request)
        with RenderSession(cornell) as fresh:
            cold = fresh.simulate(request)
        assert json.dumps(forest_to_dict(again.forest)) == (
            json.dumps(forest_to_dict(cold.forest))
        )

    @needs_plane
    def test_closing_a_pooled_stream_mid_shard_set(self, cornell, monkeypatch):
        """A pooled stream is one shard set: its first yield comes once
        shard 0 has landed, here with shard 1 held back and still
        running.  Closed there, the stream waits that shard out, so no
        job outlives it, the gate is free, the session's next request
        answers a fresh session's bytes, and nothing stays in
        ``/dev/shm``."""
        request = SimulateRequest(n_photons=3_000, seed=0xD15C)
        options = SessionOptions(workers=2)
        with RenderSession(cornell, options) as session:
            session.simulate(SimulateRequest(n_photons=1))  # start the pool
            executor = session._pool._pool._executor
            real_submit = executor.submit
            futures = []

            def submit(fn, *args):
                if fn is procpool._trace_shard_pooled and args[-1] == 1:
                    fn, args = _late_shard, (LATE_SHARD_S, *args)
                futures.append(real_submit(fn, *args))
                return futures[-1]

            monkeypatch.setattr(executor, "submit", submit)
            stream = session.simulate_stream(request, 500)
            partial = next(stream)
            assert partial.forest.photons_emitted == 500
            assert partial.stats.photons == 1_500  # shard 0 has landed
            assert [f.done() for f in futures] == [True, False]
            stream.close()
            assert all(f.done() for f in futures)
            assert not KERNEL_GATE.locked()
            monkeypatch.setattr(executor, "submit", real_submit)
            again = session.simulate(request)
        with RenderSession(cornell, options) as fresh_session:
            fresh = fresh_session.simulate(request)
        assert json.dumps(forest_to_dict(again.forest)) == (
            json.dumps(forest_to_dict(fresh.forest))
        )
        assert leaked_segments() == []

    @needs_plane
    def test_multiprocess_stream_cancel_keeps_shm_clean(self, mini_scene):
        options = SessionOptions(workers=2)
        baseline = len(leaked_segments())
        with RenderSession(mini_scene, options) as session:
            stream = session.simulate_stream(REQUEST, 64)
            next(stream)
            stream.close()
            # Same session, same request, full run: byte-identical to a
            # fresh session's answer (the cancel left no tally behind).
            cancelled_then_full = session.simulate(REQUEST)
        with RenderSession(mini_scene, options) as fresh_session:
            fresh = fresh_session.simulate(REQUEST)
        assert json.dumps(forest_to_dict(cancelled_then_full.forest)) == (
            json.dumps(forest_to_dict(fresh.forest))
        )
        assert len(leaked_segments()) == baseline


def _poll_stats(service, predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = service.request("GET", "/stats")
        stats = json.loads(body)
        if predicate(stats):
            return stats
        time.sleep(0.05)
    raise AssertionError(f"stats never satisfied predicate: {stats}")


class TestHttpDisconnect:
    def test_client_disconnect_returns_session_to_pool(self, tmp_path):
        config = ServiceConfig(
            scenes=("cornell-box",), sessions_per_scene=1, port=0
        )
        baseline = leaked_segments()
        with ServiceThread(config) as service:
            # Hand-rolled client: read the head and the first chunk,
            # then vanish without reading the rest.
            body = json.dumps(
                {"photons": 5000, "batch": 64}
            ).encode()
            with socket.create_connection(
                (service.host, service.port), timeout=30
            ) as sock:
                sock.sendall(
                    (
                        f"POST {simulate_path('cornell-box', stream=True)} "
                        "HTTP/1.1\r\n"
                        f"Host: {service.host}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode()
                    + body
                )
                first = sock.recv(4096)
                assert b"200 OK" in first and b"chunked" in first
                # RST rather than FIN so the server notices promptly.
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )

            # The cleanup path runs asynchronously: the in-flight step
            # finishes, the stream closes, the session goes back.
            stats = _poll_stats(
                service,
                lambda s: (
                    s["scenes"]["cornell-box"]["pool"]["in_use"] == 0
                    and s["requests"]["cancelled_streams"] >= 1
                ),
            )
            assert stats["scenes"]["cornell-box"]["pool"]["idle"] == 1

            # The single pooled session was freed — a follow-up request
            # on this 1-session pool serves (it would 429 if leaked).
            status, _, answer = service.request(
                "POST",
                simulate_path("cornell-box"),
                {"photons": 300},
            )
            assert status == 200 and answer.startswith(b"{")
        assert leaked_segments() == baseline

    def test_stream_read_to_completion_still_works(self):
        """The non-cancel control: a patient client gets the answer."""
        config = ServiceConfig(scenes=("cornell-box",), port=0)
        with ServiceThread(config) as service:
            status, _, oneshot = service.request(
                "POST", simulate_path("cornell-box"), {"photons": 400}
            )
            assert status == 200
            status, headers, streamed = service.request(
                "POST",
                simulate_path("cornell-box", stream=True),
                {"photons": 400, "batch": 128},
            )
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            lines = streamed.strip().split(b"\n")
            assert len(lines) == 4  # ceil(400/128) progress+final lines
            for line in lines[:-1]:
                assert b"progress" in line
            assert lines[-1] == oneshot
        assert leaked_segments() == []
