"""End-to-end RenderService behaviour over real HTTP.

The tentpole contracts, exercised through sockets: served bytes are
identical to the ``repro simulate`` answer file (the determinism
contract survives the service hop), 16 concurrent clients across two
resident scenes all get those bytes, overload is rejected loudly with
429, deadlines map to 504, and shutdown leaves ``/dev/shm`` empty.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE
from repro.core import save_answer
from repro.parallel.shmplane import leaked_segments
from repro.scenes import get_scene
from repro.service import (
    ServiceConfig,
    ServiceThread,
    canonical_answer_bytes,
    simulate_path,
)

SCENES = ("cornell-box", "gen:office-8@0xBEEF")


def reference_bytes(spec: str, photons: int, tmp_path) -> bytes:
    """The answer-file bytes ``repro simulate --engine vector`` writes."""
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

    def test_executor_sizing(self):
        config = ServiceConfig(
            scenes=("a",), max_programs=3, sessions_per_scene=2
        )
        assert config.resolved_executor_threads == 8
        assert ServiceConfig(
            scenes=("a",), executor_threads=5
        ).resolved_executor_threads == 5

    def test_bad_scene_spec_fails_startup(self):
        config = ServiceConfig(scenes=("no-such-scene",), port=0)
        with pytest.raises(RuntimeError, match="no-such-scene"):
            ServiceThread(config).start()
        config = ServiceConfig(scenes=("file:/does/not/exist.json",), port=0)
        with pytest.raises(RuntimeError, match="not found"):
            ServiceThread(config).start()
