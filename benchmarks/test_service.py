"""Render service under concurrent clients.

One ``RenderService`` hosts two resident scenes (a built-in and a
generated one) and serves 1, 4, and 16 concurrent HTTP clients.
Clients alternate scenes, so the 16-client row exercises both session
pools and the registry's hit path at once.  ``bench/``'s
``service_mixed`` workload measures the service's throughput.

Asserted *shape* (per the rule in ``benchmarks/conftest.py``, never
absolute seconds): every response — at every concurrency, on both
scenes — is byte-identical to the scene's reference answer (the
determinism contract under load), every request is answered 200
(admission is sized for the offered load), and no shared-memory
segment survives the service.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.parallel.shmplane import leaked_segments
from repro.scenes import get_scene
from repro.service import (
    ServiceConfig,
    ServiceThread,
    canonical_answer_bytes,
    simulate_path,
)


SCENES = ("cornell-box", "gen:office-8@0xBEEF")
PHOTONS = 1_500
REQUESTS_PER_CLIENT = 3
CONCURRENCY_LEVELS = (1, 4, 16)


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(
        scenes=SCENES,
        port=0,
        sessions_per_scene=2,
        queue_limit=16,  # 16 clients across 2 scenes must queue, not 429
        default_deadline=300.0,
    )
    with ServiceThread(config) as thread:
        yield thread
    assert leaked_segments() == []


@pytest.fixture(scope="module")
def reference(service):
    """Per-scene canonical answer bytes (and a service warm-up)."""
    expected = {}
    for spec in SCENES:
        with RenderSession(get_scene(spec), SessionOptions()) as session:
            result = session.simulate(SimulateRequest(n_photons=PHOTONS))
        expected[spec] = canonical_answer_bytes(result)
        # Admit the program + warm a session before anything is timed.
        status, _, body = service.request(
            "POST", simulate_path(spec), {"photons": PHOTONS}
        )
        assert status == 200 and body == expected[spec]
    return expected


@pytest.fixture(scope="module")
def load_points(service, reference):
    """Every response at each concurrency level."""

    def one_client(client: int) -> list[tuple[str, int, bytes]]:
        outcomes = []
        for i in range(REQUESTS_PER_CLIENT):
            spec = SCENES[(client + i) % len(SCENES)]
            status, _, body = service.request(
                "POST",
                simulate_path(spec),
                {"photons": PHOTONS, "deadline": 300.0},
                timeout=300,
            )
            outcomes.append((spec, status, body))
        return outcomes

    points = {}
    for clients in CONCURRENCY_LEVELS:
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            per_client = list(pool.map(one_client, range(clients)))
        points[clients] = [o for client in per_client for o in client]
    return points


class TestServiceUnderLoad:
    def test_every_response_is_byte_identical(self, load_points, reference):
        for clients, outcomes in load_points.items():
            for spec, status, body in outcomes:
                assert status == 200, (clients, spec, status)
                assert body == reference[spec], (
                    f"served bytes diverged for {spec} at "
                    f"{clients} concurrent clients"
                )

    def test_all_offered_load_was_served(self, load_points):
        for clients, outcomes in load_points.items():
            assert len(outcomes) == clients * REQUESTS_PER_CLIENT
