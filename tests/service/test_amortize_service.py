"""Amortized serving over real HTTP: top-ups, early stop, renders.

The service-level face of the forest cache: a warm service serves a
larger budget by tracing only the missing range (bytes still identical
to a cold CLI answer), ``target_error`` early-stops with the traced
prefix reported in response headers, ``/scenes/<spec>/render`` returns
deterministic PPM bytes and books camera-only hits, and ``/stats``
exposes the amortization counters that prove any of it happened.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SessionOptions
from repro.parallel.shmplane import leaked_segments
from repro.service import ServiceConfig, ServiceThread, simulate_path

from tests.service.test_service import reference_bytes


@pytest.fixture(scope="module")
def amortized():
    config = ServiceConfig(
        scenes=("cornell-box",),
        port=0,
        options=SessionOptions(amortize=True),
    )
    with ServiceThread(config) as thread:
        yield thread
    assert leaked_segments() == []


def service_stats(service) -> dict:
    status, _, body = service.request("GET", "/stats")
    assert status == 200
    return json.loads(body)


class TestServedTopUps:
    def test_larger_budget_tops_up_and_matches_cold_bytes(
        self, amortized, tmp_path
    ):
        status, _, _ = amortized.request(
            "POST", simulate_path("cornell-box"), {"photons": 96}
        )
        assert status == 200
        before = service_stats(amortized)["amortize"]
        status, _, body = amortized.request(
            "POST", simulate_path("cornell-box"), {"photons": 240}
        )
        assert status == 200
        assert body == reference_bytes("cornell-box", 240, tmp_path)
        after = service_stats(amortized)["amortize"]
        assert after["topups"] == before["topups"] + 1
        assert after["photons_saved"] >= before["photons_saved"] + 96

    def test_repeated_request_is_an_exact_hit(self, amortized):
        request = {"photons": 130, "seed": 99}
        amortized.request("POST", simulate_path("cornell-box"), request)
        before = service_stats(amortized)["amortize"]
        status, _, _ = amortized.request(
            "POST", simulate_path("cornell-box"), request
        )
        assert status == 200
        after = service_stats(amortized)["amortize"]
        assert after["exact_hits"] == before["exact_hits"] + 1
        # The forest cache answered it: the whole budget was saved.
        assert after["photons_saved"] == before["photons_saved"] + 130

    def test_stats_shape(self, amortized):
        stats = service_stats(amortized)
        counters = {
            "exact_hits", "topups", "camera_only_hits", "photons_saved",
            "early_stops",
        }
        assert set(stats["amortize"]) == counters
        scene = stats["scenes"]["cornell-box"]["amortize"]
        assert set(scene) == counters | {"forest_entries"}
        assert scene["forest_entries"] >= 1
        assert "served_render" in stats["requests"]
        # Clock-free and monotone: the service has traced by now.
        assert set(stats["kernel_gate"]) == {"acquired", "contended"}
        assert stats["kernel_gate"]["acquired"] >= 1
        assert 0 <= stats["kernel_gate"]["contended"] <= (
            stats["kernel_gate"]["acquired"]
        )


class TestHostileNumbers:
    """Numbers JSON can spell but the request cannot hold are the
    client's error — a typed 400, never a 500 with a traceback."""

    @pytest.mark.parametrize("field", ["photons", "seed", "batch"])
    def test_overflowing_integer_is_400(self, amortized, field):
        status, _, body = amortized.request(
            "POST",
            simulate_path("cornell-box"),
            # json.loads reads 1e400 as inf, and int(inf) overflows.
            b'{"%s": 1e400}' % field.encode(),
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("field, value", [
        ("sigma", b"NaN"), ("sigma", b'"nan"'), ("sigma", b"Infinity"),
        ("deadline", b"NaN"), ("deadline", b'"inf"'), ("deadline", b"-Infinity"),
    ], ids=[
        "sigma-NaN", "sigma-str-nan", "sigma-Infinity",
        "deadline-NaN", "deadline-str-inf", "deadline-minus-inf",
    ])
    def test_non_finite_is_400(self, amortized, field, value):
        """Python's JSON reads NaN/Infinity; served, a NaN threshold would
        be answer bytes that are not JSON and a cache key nothing equals."""
        amortized.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = service_stats(amortized)["scenes"]["cornell-box"]
        status, _, body = amortized.request(
            "POST",
            simulate_path("cornell-box"),
            b'{"photons": 200, "%s": %s}' % (field.encode(), value),
        )
        assert status == 400

        def not_json(token):
            raise AssertionError(f"{token} in a response body")

        error = json.loads(body, parse_constant=not_json)["error"]
        assert error["code"] == "bad-request" and "finite" in error["message"]
        after = service_stats(amortized)["scenes"]["cornell-box"]
        assert after["pool"] == before["pool"]
        assert after["amortize"] == before["amortize"]

    def test_photonless_render_is_400_before_any_session(self, amortized):
        """An empty forest has nothing to view; no session is spent on it."""
        before = service_stats(amortized)["scenes"]["cornell-box"]
        status, _, body = amortized.request(
            "POST",
            "/scenes/cornell-box/render",
            {"photons": 0, "seed": 77_002, "width": 8, "height": 6},
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"
        after = service_stats(amortized)["scenes"]["cornell-box"]
        assert after["pool"] == before["pool"]
        assert after["amortize"] == before["amortize"]


class TestStrictFieldTypes:
    """A field of the wrong JSON type is a 400 naming it — never served
    as whatever ``int()`` or ``float()`` would have made of it."""

    def _refused(self, service, path, body, field):
        service.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = service_stats(service)["scenes"]["cornell-box"]["pool"]
        status, _, raw = service.request("POST", path, body)
        assert status == 400, body
        error = json.loads(raw)["error"]
        assert error["code"] == "bad-request"
        assert repr(field) in error["message"]
        after = service_stats(service)["scenes"]["cornell-box"]["pool"]
        assert after["acquired"] == before["acquired"]

    @pytest.mark.parametrize("field, value", [
        ("photons", 2.9), ("photons", True), ("photons", 2.0), ("photons", "7"),
        ("seed", 7.8), ("seed", "7"), ("seed", False),
        ("batch", 50.5), ("batch", True),
        ("sigma", True), ("sigma", "3"),
        ("deadline", True), ("deadline", "10"),
        ("target_error", "0.1"), ("target_error", True),
    ])
    def test_simulate_field(self, amortized, field, value):
        body = {"photons": 20, field: value}
        if field == "photons":
            body = {field: value}
        self._refused(amortized, simulate_path("cornell-box"), body, field)

    @pytest.mark.parametrize("field, value", [
        ("height", True), ("width", 16.0), ("width", "16"),
        ("fov", "40"), ("fov", True),
        ("eye", [0.1, "0.5", 2.5]), ("eye", [True, 0.5, 0.5]),
        ("look_at", "home"), ("eye", {"x": 1}),
    ])
    def test_render_field(self, amortized, field, value):
        body = {"photons": 20, "width": 8, "height": 6, field: value}
        self._refused(amortized, "/scenes/cornell-box/render", body, field)

    def test_integers_and_numbers_still_serve(self, amortized):
        """Integers are numbers: ``sigma: 3`` and ``deadline: 10`` serve."""
        status, _, _ = amortized.request(
            "POST", simulate_path("cornell-box"),
            {"photons": 20, "seed": 5, "sigma": 3, "deadline": 10, "batch": 7},
        )
        assert status == 200
        status, _, _ = amortized.request(
            "POST", "/scenes/cornell-box/render",
            {"photons": 20, "width": 8, "height": 6, "fov": 40,
             "eye": [0, 0.5, 2]},
        )
        assert status == 200


class TestRemovedRngField:
    """Serving is substream-only: a leftover ``"rng"`` is an unknown
    field on every route, refused before a session is acquired."""

    @pytest.mark.parametrize("path", [
        simulate_path("cornell-box"),
        simulate_path("cornell-box", stream=True),
        "/scenes/cornell-box/render",
    ], ids=["oneshot", "stream", "render"])
    @pytest.mark.parametrize("value", ["stream", 5], ids=["stream", "int"])
    def test_rng_is_an_unknown_field(self, amortized, path, value):
        amortized.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = service_stats(amortized)
        status, _, body = amortized.request(
            "POST", path, {"photons": 100, "rng": value}
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "bad-request"
        assert "'rng'" in error["message"]
        after = service_stats(amortized)
        assert after["requests"]["bad_requests"] == (
            before["requests"]["bad_requests"] + 1
        )
        scene_before = before["scenes"]["cornell-box"]
        scene_after = after["scenes"]["cornell-box"]
        assert scene_after["pool"]["acquired"] == scene_before["pool"]["acquired"]
        assert scene_after["amortize"] == scene_before["amortize"]


class TestTargetError:
    def test_body_field_early_stops_with_headers(self, amortized, tmp_path):
        status, headers, body = amortized.request(
            "POST",
            simulate_path("cornell-box"),
            {"photons": 400_000, "target_error": 0.5},
        )
        assert status == 200
        traced = int(headers["x-repro-photons-traced"])
        assert 0 < traced < 400_000
        assert float(headers["x-repro-achieved-error"]) <= 0.5
        # The early-stopped body is the exact answer for the traced
        # prefix — still byte-comparable with a cold answer file
        # (reference_bytes uses the same default seed).
        assert body == reference_bytes("cornell-box", traced, tmp_path)

    def test_query_param_overrides_body(self, amortized):
        status, headers, _ = amortized.request(
            "POST",
            simulate_path("cornell-box") + "?target_error=0.5",
            {"photons": 400_000, "target_error": 1e-12},
        )
        assert status == 200
        # The body's unreachable target would have traced everything;
        # the query's 0.5 stops early.
        assert int(headers["x-repro-photons-traced"]) < 400_000

    def test_no_early_stop_no_headers(self, amortized):
        status, headers, _ = amortized.request(
            "POST", simulate_path("cornell-box"), {"photons": 50}
        )
        assert status == 200
        assert "x-repro-photons-traced" not in headers

    @pytest.mark.parametrize("query, body", [
        ("", b'{"photons": 20000, "target_error": 1e400}'),
        ("", b'{"photons": 20000, "target_error": Infinity}'),
        ("", b'{"photons": 20000, "target_error": NaN}'),
        ("?target_error=inf", b'{"photons": 20000}'),
        ("?target_error=1e400", b'{"photons": 20000}'),
        ("?target_error=nan", b'{"photons": 20000}'),
    ], ids=[
        "body-1e400", "body-Infinity", "body-NaN",
        "query-inf", "query-1e400", "query-nan",
    ])
    def test_non_finite_target_is_400(self, amortized, query, body):
        """An infinite target is met by the first batch: served, it
        would answer 200 with a 4,096-photon prefix of the budget."""
        amortized.request("POST", simulate_path("cornell-box"), {"photons": 10})
        before = service_stats(amortized)["scenes"]["cornell-box"]
        status, _, reply = amortized.request(
            "POST", simulate_path("cornell-box") + query, body
        )
        assert status == 400
        error = json.loads(reply)["error"]
        assert error["code"] == "bad-request"
        assert "positive and finite" in error["message"]
        after = service_stats(amortized)["scenes"]["cornell-box"]
        assert after["pool"] == before["pool"]

    @pytest.mark.parametrize("bad", [0, -0.5, "soon"])
    def test_invalid_target_is_400(self, amortized, bad):
        status, _, _ = amortized.request(
            "POST",
            simulate_path("cornell-box"),
            {"photons": 100, "target_error": bad},
        )
        assert status == 400


class TestRenderEndpoint:
    def test_ppm_bytes_deterministic(self, amortized):
        body_spec = {"photons": 60, "width": 16, "height": 12, "seed": 3}
        status, headers, first = amortized.request(
            "POST", "/scenes/cornell-box/render", body_spec
        )
        assert status == 200
        assert headers["content-type"] == "image/x-portable-pixmap"
        assert first.startswith(b"P6\n16 12\n255\n")
        assert len(first) == len(b"P6\n16 12\n255\n") + 16 * 12 * 3
        status, _, again = amortized.request(
            "POST", "/scenes/cornell-box/render", body_spec
        )
        assert status == 200
        assert again == first

    def test_camera_change_is_a_camera_only_hit(self, amortized):
        base = {"photons": 70, "seed": 11, "width": 16, "height": 12}
        amortized.request("POST", "/scenes/cornell-box/render", base)
        before = service_stats(amortized)["amortize"]
        status, _, _ = amortized.request(
            "POST",
            "/scenes/cornell-box/render",
            {**base, "eye": [0.1, 0.5, 2.5], "fov": 40},
        )
        assert status == 200
        after = service_stats(amortized)["amortize"]
        assert after["camera_only_hits"] > before["camera_only_hits"]

    def test_unknown_field_is_400(self, amortized):
        status, _, _ = amortized.request(
            "POST", "/scenes/cornell-box/render", {"photons": 10, "lens": 1}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "bad",
        [
            {"width": 0},
            {"height": 100_000},
            {"fov": 200},
            {"eye": [1, 2]},
            {"look_at": "home"},
            {"width": float("inf")},  # int(inf) overflows
        ],
    )
    def test_bad_camera_is_400(self, amortized, bad):
        status, _, _ = amortized.request(
            "POST", "/scenes/cornell-box/render", {"photons": 10, **bad}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "view",
        [
            {"eye": [0.5, 0.5, 0.5], "look_at": [0.5, 0.5, 0.5]},
            {"eye": [0.5, 0.0, 0.5], "look_at": [0.5, 1.0, 0.5]},  # along up
            {"eye": [float("nan"), 0.5, 0.5]},
            {"eye": [1e308, 0.0, 0.0], "look_at": [-1e308, 0.0, 0.0]},
        ],
        ids=["eye-is-look-at", "up-parallel", "nan", "overflow"],
    )
    def test_degenerate_camera_is_400_before_any_session(self, amortized, view):
        """A view no ray can be built for costs no session, trace or cache."""
        before = service_stats(amortized)
        status, _, body = amortized.request(
            "POST",
            "/scenes/cornell-box/render",
            {"photons": 55, "seed": 77_001, "width": 8, "height": 6, **view},
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"
        after = service_stats(amortized)
        assert (
            after["requests"]["bad_requests"]
            == before["requests"]["bad_requests"] + 1
        )
        for stanza in ("pool", "amortize"):
            assert (
                after["scenes"]["cornell-box"][stanza]
                == before["scenes"]["cornell-box"][stanza]
            )

    def test_get_render_is_405(self, amortized):
        status, _, _ = amortized.request(
            "GET", "/scenes/cornell-box/render"
        )
        assert status == 405
