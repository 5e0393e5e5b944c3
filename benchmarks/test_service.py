"""Render-service throughput/latency under concurrent clients.

Records, against one ``RenderService`` hosting two resident scenes (a
built-in and a generated one), the serving numbers the tier is
provisioned by: requests/sec and p50/p95 latency at 1, 4, and 16
concurrent HTTP clients.  Clients alternate scenes, so the 16-client
row exercises both session pools and the registry's hit path at once.

Asserted *shape* (per the rule in ``benchmarks/conftest.py``, never
absolute seconds): every response — at every concurrency, on both
scenes — is byte-identical to the scene's reference answer (the
determinism contract under load), every request is answered 200
(admission is sized for the offered load), and no shared-memory
segment survives the service.  The honest
numbers land in the printed table and in
``benchmarks/BENCH_service.json``.
"""

from __future__ import annotations

import concurrent.futures
import time

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.paper.perf import format_table
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


def percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


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
    """One measured point per concurrency level."""

    def one_client(client: int) -> list[tuple[str, int, bytes, float]]:
        outcomes = []
        for i in range(REQUESTS_PER_CLIENT):
            spec = SCENES[(client + i) % len(SCENES)]
            t0 = time.perf_counter()
            status, _, body = service.request(
                "POST",
                simulate_path(spec),
                {"photons": PHOTONS, "deadline": 300.0},
                timeout=300,
            )
            outcomes.append((spec, status, body, time.perf_counter() - t0))
        return outcomes

    points = {}
    for clients in CONCURRENCY_LEVELS:
        t0 = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            per_client = list(pool.map(one_client, range(clients)))
        wall = time.perf_counter() - t0
        outcomes = [o for client in per_client for o in client]
        latencies = sorted(o[3] for o in outcomes)
        points[clients] = {
            "outcomes": outcomes,
            "requests": len(outcomes),
            "wall_s": wall,
            "requests_per_s": len(outcomes) / wall,
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p95_ms": percentile(latencies, 0.95) * 1e3,
        }
    return points


class TestServiceUnderLoad:
    def test_every_response_is_byte_identical(self, load_points, reference):
        for clients, point in load_points.items():
            for spec, status, body, _ in point["outcomes"]:
                assert status == 200, (clients, spec, status)
                assert body == reference[spec], (
                    f"served bytes diverged for {spec} at "
                    f"{clients} concurrent clients"
                )

    def test_all_offered_load_was_served(self, load_points):
        for clients, point in load_points.items():
            assert point["requests"] == clients * REQUESTS_PER_CLIENT

    def test_record_bench_json(self, load_points, service, write_bench_json):
        rows = []
        for clients in CONCURRENCY_LEVELS:
            point = load_points[clients]
            rows.append([
                clients,
                point["requests"],
                f"{point['requests_per_s']:.1f}",
                f"{point['p50_ms']:.0f}",
                f"{point['p95_ms']:.0f}",
            ])
        print()
        print(format_table(
            ["clients", "requests", "req/s", "p50 ms", "p95 ms"], rows
        ))
        _, _, raw = service.request("GET", "/stats")
        write_bench_json("service", {
            "scenes": list(SCENES),
            "photons": PHOTONS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "load": {
                str(clients): {
                    key: round(value, 4) if isinstance(value, float) else value
                    for key, value in point.items()
                    if key != "outcomes"
                }
                for clients, point in load_points.items()
            },
        })
