"""End-to-end RenderService behaviour over real HTTP.

The tentpole contracts, exercised through sockets: served bytes are
identical to the ``repro simulate`` answer file (the determinism
contract survives the service hop), 16 concurrent clients across two
resident scenes all get those bytes, overload is rejected loudly with
429, deadlines map to 504, and shutdown leaves ``/dev/shm`` empty.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import gc
import json
import math
import socket
import threading
import time
import weakref

import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE
from repro.core import save_answer
from repro.parallel import resultplane
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.scenes import get_scene
from repro.service import (
    ServiceConfig,
    ServiceThread,
    SessionPool,
    canonical_answer_bytes,
    simulate_path,
)

SCENES = ("cornell-box", "gen:office-8@0xBEEF")


def reference_bytes(spec: str, photons: int, tmp_path) -> bytes:
    """The answer-file bytes ``repro simulate`` writes."""
    with RenderSession(get_scene(spec), SessionOptions()) as session:
        result = session.simulate(SimulateRequest(n_photons=photons))
    path = tmp_path / "reference.answer.json"
    save_answer(result.forest, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(scenes=SCENES, port=0)
    with ServiceThread(config) as thread:
        yield thread
    assert leaked_segments() == []


class TestAnswerBytes:
    def test_oneshot_matches_answer_file(self, service, tmp_path):
        expected = reference_bytes("cornell-box", 350, tmp_path)
        status, headers, body = service.request(
            "POST", simulate_path("cornell-box"), {"photons": 350}
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body == expected

    def test_canonical_bytes_helper_agrees_with_save_answer(self, tmp_path):
        with RenderSession(get_scene("cornell-box")) as session:
            result = session.simulate(SimulateRequest(n_photons=120))
        path = tmp_path / "a.json"
        save_answer(result.forest, path)
        assert canonical_answer_bytes(result) == path.read_bytes()

    def test_sixteen_concurrent_clients_two_scenes(self, service, tmp_path):
        """The headline constraint: 16 clients, 2 scenes, exact bytes."""
        photons = 250
        expected = {
            spec: reference_bytes(spec, photons, tmp_path)
            for spec in SCENES
        }

        def one(i: int):
            spec = SCENES[i % 2]
            stream = i % 4 == 3  # mix some streaming clients in
            status, _, body = service.request(
                "POST",
                simulate_path(spec, stream=stream),
                {"photons": photons, "deadline": 120.0},
                timeout=120,
            )
            answer = body.strip().split(b"\n")[-1] if stream else body
            return spec, status, answer

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            outcomes = list(pool.map(one, range(16)))
        for spec, status, answer in outcomes:
            assert status == 200
            assert answer == expected[spec]


class TestAdmission:
    def test_queue_full_is_429_with_retry_after(self):
        config = ServiceConfig(
            scenes=("cornell-box",),
            sessions_per_scene=1,
            queue_limit=0,
            port=0,
        )
        with ServiceThread(config) as service:
            # Warm the program so the hog request is pure tracing.
            service.request(
                "POST", simulate_path("cornell-box"), {"photons": 10}
            )
            hog_result: dict = {}

            def hog():
                hog_result["response"] = service.request(
                    "POST",
                    simulate_path("cornell-box"),
                    {"photons": 300_000, "deadline": 300.0},
                    timeout=300,
                )

            hogging = threading.Thread(target=hog)
            hogging.start()
            try:
                # Wait until the hog actually holds the one session
                # (stats polling never touches the pool), then probe:
                # with queue_limit=0 the rejection is immediate.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    _, _, raw = service.request("GET", "/stats")
                    pool = json.loads(raw)["scenes"]["cornell-box"]["pool"]
                    if pool["in_use"] == 1:
                        break
                    time.sleep(0.01)
                assert pool["in_use"] == 1, "hog never checked a session out"
                status, headers, body = service.request(
                    "POST", simulate_path("cornell-box"), {"photons": 10}
                )
                assert status == 429
                assert "retry-after" in headers
                payload = json.loads(body)
                assert payload["error"]["code"] == "overloaded"
                assert "capacity" in payload["error"]["message"]
            finally:
                hogging.join(timeout=300)
            assert hog_result["response"][0] == 200
        assert leaked_segments() == []

    def test_oneshot_deadline_is_504(self, service):
        status, _, body = service.request(
            "POST",
            simulate_path("cornell-box"),
            {"photons": 500_000, "deadline": 0.05},
            timeout=120,
        )
        assert status == 504
        assert json.loads(body)["error"]["code"] == "deadline-exceeded"

    def test_deadline_spent_waiting_at_the_kernel_gate(self, service, tmp_path):
        """A one-shot still queued at the gate when its deadline passes
        gets the typed 504; when the gate frees, its trace runs out, the
        session goes back, and the key answers with its cold bytes."""

        def pool_stats() -> dict:
            _, _, raw = service.request("GET", "/stats")
            return json.loads(raw)["scenes"]["cornell-box"]["pool"]

        def wait_idle() -> None:
            deadline = time.monotonic() + 60
            while pool_stats()["in_use"] and time.monotonic() < deadline:
                time.sleep(0.02)

        request = {"photons": 260}
        service.request("POST", simulate_path("cornell-box"), {"photons": 10})
        # The previous test's timed-out trace returns its session after
        # its response was sent, possibly after this warm-up's too.
        wait_idle()
        segments = leaked_segments()
        before = pool_stats()
        assert before["in_use"] == 0
        with KERNEL_GATE:
            status, _, body = service.request(
                "POST",
                simulate_path("cornell-box"),
                dict(request, deadline=0.2),
                timeout=120,
            )
            assert status == 504
            assert json.loads(body)["error"]["code"] == "deadline-exceeded"
            # Its executor thread is parked at the gate, session in hand.
            assert pool_stats()["in_use"] == 1
        wait_idle()
        after = pool_stats()
        assert after["in_use"] == 0
        assert after["acquired"] == before["acquired"] + 1
        assert after["idle"] == after["sessions"]
        assert leaked_segments() == segments
        status, _, body = service.request(
            "POST", simulate_path("cornell-box"), request
        )
        assert status == 200
        assert body == reference_bytes("cornell-box", 260, tmp_path)

    def test_stream_deadline_truncates_in_band(self, service):
        # Warm first so the stream reaches its chunk loop, then ask for
        # far more tracing than the deadline allows: the stream must end
        # with an in-band error line and a clean chunked terminator.
        service.request(
            "POST", simulate_path("cornell-box"), {"photons": 10}
        )
        status, _, body = service.request(
            "POST",
            simulate_path("cornell-box", stream=True),
            {"photons": 500_000, "batch": 256, "deadline": 0.3},
            timeout=120,
        )
        assert status == 200  # headers were long gone; the error is in-band
        last = json.loads(body.strip().split(b"\n")[-1])
        assert last["error"]["code"] == "deadline-exceeded"
        assert "truncated" in last["error"]["message"]

    @pytest.mark.skipif(
        not plane_available(), reason="no multiprocessing.shared_memory here"
    )
    def test_pooled_stream_deadline_truncates_within_a_shard_set(
        self, tmp_path
    ):
        """A pooled stream reaches a report point every shard set of a
        wave per worker, so a deadline cuts a 2M-photon ``workers=2``
        stream within about one set past it (tracing the budget's one
        shard set first would take seconds), and the session it held
        serves the next request's CLI bytes at once."""
        config = ServiceConfig(
            scenes=("cornell-box",), port=0, sessions_per_scene=1,
            options=SessionOptions(workers=2),
        )
        with ServiceThread(config) as service:
            service.request(
                "POST", simulate_path("cornell-box"), {"photons": 10}
            )
            began = time.perf_counter()
            status, _, body = service.request(
                "POST",
                simulate_path("cornell-box", stream=True),
                {"photons": 2_000_000, "deadline": 0.3},
                timeout=120,
            )
            took = time.perf_counter() - began
            assert status == 200
            last = json.loads(body.strip().split(b"\n")[-1])
            assert last["error"]["code"] == "deadline-exceeded"
            assert took < 1.5  # ~0.31 s here; one shard set: ~3.2 s
            status, _, body = service.request(
                "POST", simulate_path("cornell-box"), {"photons": 300},
                timeout=10,
            )
            assert status == 200
            assert body == reference_bytes("cornell-box", 300, tmp_path)
        assert leaked_segments() == []

    @pytest.mark.parametrize("route", ["stream", "oneshot", "render"])
    def test_deadline_spent_in_the_queue_is_504_before_headers(
        self, service, monkeypatch, route
    ):
        """A session handed over only as the deadline passes is put back
        at once: every route answers a plain 504, a stream included,
        before any header; nothing is traced."""
        real_acquire = SessionPool.acquire

        async def late_handoff(pool, timeout=None):
            session = await real_acquire(pool, timeout)
            await asyncio.sleep(timeout)  # the queue used the deadline up
            return session

        path = {
            "stream": simulate_path("cornell-box", stream=True),
            "oneshot": simulate_path("cornell-box"),
            "render": "/scenes/cornell-box/render",
        }[route]
        service.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = scene_pool(service)
        monkeypatch.setattr(SessionPool, "acquire", late_handoff)
        status, headers, body = service.request(
            "POST", path, {"photons": 20_000, "deadline": 0.2}, timeout=60
        )
        monkeypatch.undo()
        assert status == 504, body[:200]
        assert "transfer-encoding" not in headers
        error = json.loads(body)["error"]
        assert error["code"] == "deadline-exceeded"
        assert "during admission" in error["message"]
        after = scene_pool(service)
        assert after["acquired"] == before["acquired"] + 1
        assert after["in_use"] == 0


def scene_pool(service, spec: str = "cornell-box") -> dict:
    _, _, raw = service.request("GET", "/stats")
    return json.loads(raw)["scenes"][spec]["pool"]


def poll_stats(service, predicate, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        _, _, raw = service.request("GET", "/stats")
        stats = json.loads(raw)
        if predicate(stats) or time.monotonic() > deadline:
            return stats
        time.sleep(0.02)


@pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)
class TestEvictionInFlight:
    """``max_programs=1``: a request on scene B evicts scene A while A's
    request is still in flight.  A's pool drains under the registry —
    ``/stats`` says so — and its answer, its program and its plane come
    out as if nothing had happened."""

    def test_evicted_scene_drains_then_is_forgotten(self, tmp_path, monkeypatch):
        office = SCENES[1]
        photons = 3000
        expected = {
            spec: reference_bytes(spec, photons, tmp_path) for spec in SCENES
        }
        config = ServiceConfig(
            scenes=SCENES, port=0, max_programs=1,
            options=SessionOptions(workers=2),
        )
        replies: dict = {}
        compiled: list = []
        compile_program = SceneProgram.compile.__func__

        def recording_compile(cls, scene, **kwargs):
            program = compile_program(cls, scene, **kwargs)
            compiled.append(weakref.ref(program))
            return program

        monkeypatch.setattr(
            SceneProgram, "compile", classmethod(recording_compile)
        )

        def post(spec: str) -> None:
            replies[spec] = service.request(
                "POST", simulate_path(spec),
                {"photons": photons, "deadline": 300.0}, timeout=300,
            )

        with ServiceThread(config) as service:
            # Warm A: its session keeps a worker pool, and with it a
            # reference on A's published plane.
            status, _, _ = service.request(
                "POST", simulate_path("cornell-box"), {"photons": 10}
            )
            assert status == 200
            [program] = compiled
            # The held gate parks A (session in hand) and then B.
            with KERNEL_GATE:
                a = threading.Thread(target=post, args=("cornell-box",))
                a.start()
                poll_stats(service, lambda s: s["scenes"]["cornell-box"][
                    "pool"]["in_use"] == 1)
                b = threading.Thread(target=post, args=(office,))
                b.start()
                during = poll_stats(
                    service, lambda s: s["programs"]["evictions"] == 1
                )
                assert during["requests"]["draining_pools"] == 1
                assert during["programs"]["resident"] == [office]
                assert during["programs"]["draining"] == ["cornell-box"]
            a.join(timeout=300)
            b.join(timeout=300)
            after = poll_stats(
                service, lambda s: s["requests"]["draining_pools"] == 0
            )
            assert after["requests"]["draining_pools"] == 0
            assert after["programs"]["draining"] == []
            for spec in SCENES:
                status, _, body = replies[spec]
                assert status == 200
                assert body == expected[spec], spec
            gc.collect()
            assert program() is None, "the evicted program is still referenced"
        assert leaked_segments() == []


@pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)
class TestShmExhaustion:
    """``/dev/shm`` full when a pooled request's result blocks are made:
    a one-shot answers a JSON 500 and a stream ends with an in-band error
    line and a clean chunked terminator.  Neither leaves a result segment
    behind, and the next request serves the CLI's bytes."""

    def test_enospc_fails_one_request_and_the_next_serves(
        self, tmp_path, enospc_once
    ):
        spec = "cornell-box"
        config = ServiceConfig(
            scenes=(spec,), port=0, sessions_per_scene=1,
            options=SessionOptions(workers=2),
        )
        baseline = set(leaked_segments())

        def live_segments() -> int:
            return len(set(leaked_segments()) - baseline)

        with ServiceThread(config) as service:
            refused = enospc_once(resultplane)
            status, headers, body = service.request(
                "POST", simulate_path(spec), {"photons": 300}
            )
            assert status == 500
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["error"]["code"] == "internal-error"
            assert not KERNEL_GATE.locked()
            assert live_segments() == 1  # the scene plane, no result block

            status, _, body = service.request(
                "POST", simulate_path(spec), {"photons": 300}
            )
            assert status == 200
            assert body == reference_bytes(spec, 300, tmp_path)
            assert not KERNEL_GATE.locked()
            assert live_segments() == 2

            # A bigger budget regrows the blocks: that allocation fails.
            refused_regrow = enospc_once(resultplane)
            streamed = {"photons": 2_000, "batch": 500}
            status, headers, body = service.request(
                "POST", simulate_path(spec, stream=True), streamed
            )
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            [line] = body.strip().split(b"\n")
            assert json.loads(line)["error"]["code"] == "internal-error"
            assert not KERNEL_GATE.locked()
            assert live_segments() == 1

            status, _, body = service.request(
                "POST", simulate_path(spec, stream=True), streamed
            )
            assert status == 200
            lines = body.strip().split(b"\n")
            assert len(lines) == 4
            assert lines[-1] == reference_bytes(spec, 2_000, tmp_path)
            assert not KERNEL_GATE.locked()
            assert live_segments() == 2
        assert (len(refused), len(refused_regrow)) == (1, 1)
        assert set(leaked_segments()) == baseline


class TestRouting:
    def test_unserved_scene_404(self, service):
        status, _, body = service.request(
            "POST", simulate_path("office-64"), {"photons": 10}
        )
        assert status == 404
        assert json.loads(body)["error"]["code"] == "scene-not-served"

    def test_unknown_route_404(self, service):
        status, _, _ = service.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, service):
        status, _, _ = service.request("GET", simulate_path("cornell-box"))
        assert status == 405
        status, _, _ = service.request("POST", "/healthz")
        assert status == 405

    def test_unknown_field_400(self, service):
        status, _, body = service.request(
            "POST", simulate_path("cornell-box"), {"photon": 10}
        )
        assert status == 400
        assert "photon" in json.loads(body)["error"]["message"]

    def test_bad_values_400(self, service):
        for bad in (
            {"photons": "many"},
            {"deadline": -1},
            {"batch": 0},
            {"rng": "dice"},
        ):
            status, _, _ = service.request(
                "POST", simulate_path("cornell-box"), bad
            )
            assert status == 400, bad

    @pytest.mark.parametrize("seed", [-5, 2**48, 2**80])
    def test_seed_outside_the_generator_period_400(self, service, seed):
        status, _, body = service.request(
            "POST", simulate_path("cornell-box"), {"photons": 10, "seed": seed}
        )
        assert status == 400
        assert "seed must lie in [0, 2**48)" in json.loads(body)["error"]["message"]

    def test_photons_past_the_substream_period_400(self, service):
        """Refused before a session is taken: ``pool.acquired`` holds."""

        def acquired() -> int:
            _, _, body = service.request("GET", "/stats")
            return json.loads(body)["scenes"]["cornell-box"]["pool"]["acquired"]

        # Admit the scene so its pool counters exist.
        service.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = acquired()
        status, _, body = service.request(
            "POST", simulate_path("cornell-box"), {"photons": 10**10}
        )
        assert status == 400
        message = json.loads(body)["error"]["message"]
        assert "n_photons must be at most 268435456" in message
        assert acquired() == before

    def test_chunked_body_400(self, service):
        """A body framed by ``Transfer-Encoding`` is refused rather than
        read as no body (which served the default budget): a 400 that
        checks out no session and counts in ``bad_requests``."""

        def counters() -> tuple[int, int]:
            _, _, body = service.request("GET", "/stats")
            stats = json.loads(body)
            return (
                stats["scenes"]["cornell-box"]["pool"]["acquired"],
                stats["requests"]["bad_requests"],
            )

        # Admit the scene so its pool counters exist.
        service.request("POST", simulate_path("cornell-box"), {"photons": 10})
        acquired, bad = counters()
        body = b'{"photons": 10, "seed": 7}'
        raw = (
            f"POST {simulate_path('cornell-box')} HTTP/1.1\r\n"
            "Host: localhost\r\nTransfer-Encoding: chunked\r\n\r\n"
            f"{len(body):x}\r\n"
        ).encode("latin-1") + body + b"\r\n0\r\n\r\n"
        with socket.create_connection(
            (service.host, service.port), timeout=60
        ) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert "Transfer-Encoding" in json.loads(payload)["error"]["message"]
        assert counters() == (acquired, bad + 1)

    def test_non_object_body_400(self, service):
        status, _, _ = service.request(
            "POST", simulate_path("cornell-box"), b"[1, 2, 3]"
        )
        assert status == 400

    def test_healthz_and_stats(self, service):
        status, _, body = service.request("GET", "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}
        status, _, body = service.request("GET", "/stats")
        stats = json.loads(body)
        assert status == 200
        assert set(stats) == {
            "status", "programs", "scenes", "amortize", "kernel_gate",
            "requests",
        }
        assert stats["programs"]["max_programs"] == 4


class TestBodyCap:
    def test_oversized_body_413(self):
        config = ServiceConfig(
            scenes=("cornell-box",), max_body_bytes=64, port=0
        )
        with ServiceThread(config) as service:
            status, _, body = service.request(
                "POST",
                simulate_path("cornell-box"),
                {"photons": 10, "seed": int("9" * 70)},
            )
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload-too-large"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one scene"):
            ServiceConfig(scenes=())
        with pytest.raises(ValueError, match="duplicate"):
            ServiceConfig(scenes=("a", "a"))
        with pytest.raises(ValueError, match="sessions_per_scene"):
            ServiceConfig(scenes=("a",), sessions_per_scene=0)
        with pytest.raises(ValueError, match="default_deadline"):
            ServiceConfig(scenes=("a",), default_deadline=0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"default_deadline": math.nan},
            {"default_deadline": math.inf},
            {"max_body_bytes": -1},
        ],
        ids=["deadline-nan", "deadline-inf", "negative-body-cap"],
    )
    def test_settings_that_refuse_every_request_are_rejected(self, setting):
        """A NaN or infinite default deadline would 400 every request
        without a body deadline; a negative body cap would 413 even a
        bodiless ``GET /healthz``."""
        with pytest.raises(ValueError, match=next(iter(setting))):
            ServiceConfig(scenes=("a",), **setting)

    def test_executor_sizing(self):
        config = ServiceConfig(
            scenes=("a",), max_programs=3, sessions_per_scene=2
        )
        assert config.resolved_executor_threads == 8

    def test_executor_size_is_derived_not_configured(self):
        with pytest.raises(TypeError):
            ServiceConfig(scenes=("a",), executor_threads=5)
        assert len(dataclasses.fields(ServiceConfig)) == 10

    def test_bad_scene_spec_fails_startup(self):
        config = ServiceConfig(scenes=("no-such-scene",), port=0)
        with pytest.raises(RuntimeError, match="no-such-scene"):
            ServiceThread(config).start()
        config = ServiceConfig(scenes=("file:/does/not/exist.json",), port=0)
        with pytest.raises(RuntimeError, match="not found"):
            ServiceThread(config).start()
