"""Result plane vs pickle return transport: bytes over the boundary.

Records, on the computer-lab scene for a 2-process pool under each
result transport (``result_plane="on"`` vs ``"off"``):

* **bytes over the boundary per request** — the pickled size of what
  the trace phase actually returns.  With the plane on this is
  O(workers) descriptors (a few hundred bytes each); with it off it is
  the full event payload, which scales with the photon budget.  This is
  the acceptance criterion of the transport: descriptors must not grow
  when the budget does.
* **steady-state photons/sec** — warm :meth:`PhotonPool.run` under each
  transport; identical tracing, so any gap is transport overhead.
* **warm-session contract, extended to result blocks** — request #2 on
  a session reuses the *same* :class:`ResultPlane` object and segment
  (no reallocation), alongside the PR 4 pool/arrays/segment reuse.

Asserted *shape* (per EXPERIMENTS.md, never absolute seconds): both
transports produce byte-identical forests, descriptor bytes stay
O(workers) and stop scaling with the budget while pickle bytes grow
with it, warm requests recycle the same blocks, and no segment survives
the run.  The honest numbers land in the printed table and in
``benchmarks/BENCH_resultplane.json``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import SimulationConfig, forest_to_dict
from repro.parallel.procpool import PhotonPool
from repro.parallel.shmplane import leaked_segments
from repro.perf import format_table


SEED = 0x1234ABCD330E
PHOTONS = 2_000
SMALL_PHOTONS = 500
WORKERS = 2


@pytest.fixture(scope="module")
def transport_runs(request):
    """Steady rate, forest bytes, and boundary bytes per result transport."""
    lab = request.getfixturevalue("scenes")["computer-lab"]
    out = {}
    for mode in ("on", "off"):
        config = SimulationConfig(
            n_photons=PHOTONS, seed=SEED, engine="vector",
            workers=WORKERS, result_plane=mode,
        )
        small = SimulationConfig(
            n_photons=SMALL_PHOTONS, seed=SEED, engine="vector",
            workers=WORKERS, result_plane=mode,
        )
        with PhotonPool(lab, config) as pool:
            pool.worker_transports()  # barrier: engines built
            first = pool.run()
            boundary = pool.last_result_wire_bytes
            events = sum(r.count for r in pool.last_shard_results)
            t0 = time.perf_counter()
            second = pool.run()
            steady = PHOTONS / (time.perf_counter() - t0)
            pool.run(small)
            small_boundary = pool.last_result_wire_bytes
        out[mode] = {
            "steady_rate": steady,
            "boundary_bytes": boundary,
            "small_boundary_bytes": small_boundary,
            "events": events,
            "bytes": json.dumps(forest_to_dict(first.forest)),
            "repeat_bytes": json.dumps(forest_to_dict(second.forest)),
        }
    return out


def test_result_transport_table(transport_runs):
    """Record the return-transport matrix (run with ``-s`` to see it)."""
    rows = []
    for mode in ("on", "off"):
        r = transport_runs[mode]
        rows.append([
            mode, f"{r['events']:,}", f"{r['boundary_bytes']:,} B",
            f"{r['small_boundary_bytes']:,} B", f"{r['steady_rate']:,.0f}",
        ])
    print()
    print(f"PhotonPool result transports, computer-lab, {WORKERS} workers, "
          f"{PHOTONS} photons ({SMALL_PHOTONS} for the small request):")
    print(format_table(
        ["result_plane", "events/request", "bytes over boundary",
         "bytes (small request)", "steady photons/s"],
        rows,
    ))


def test_descriptors_are_o_workers_not_o_events(transport_runs):
    """The acceptance criterion: with the plane on, return bytes are a
    few descriptors regardless of budget; with it off they scale with
    the event count (64 B/event across the eight columns)."""
    on, off = transport_runs["on"], transport_runs["off"]
    assert on["boundary_bytes"] < WORKERS * 1024
    assert off["boundary_bytes"] > off["events"] * 8 * 8
    # Budget-independence: a 4x budget must not move the descriptor size
    # beyond integer-encoding noise, while the pickle payload tracks it.
    assert abs(on["boundary_bytes"] - on["small_boundary_bytes"]) < 64
    assert off["boundary_bytes"] > 2 * off["small_boundary_bytes"]


def test_result_transports_byte_identical(transport_runs):
    """Golden property: the return-transport knob cannot move a byte."""
    assert transport_runs["on"]["bytes"] == transport_runs["off"]["bytes"]
    assert transport_runs["on"]["bytes"] == transport_runs["on"]["repeat_bytes"]


@pytest.fixture(scope="module")
def warm_session_blocks():
    """Request #2 on a session must reuse the same result blocks."""
    from repro.api import RenderSession, SessionOptions, SimulateRequest
    from repro.scenes import computer_lab

    options = SessionOptions(workers=WORKERS, share_plane="on",
                             result_plane="on")
    request = SimulateRequest(n_photons=PHOTONS, seed=SEED)
    out = {}
    with RenderSession(computer_lab(), options) as session:
        t0 = time.perf_counter()
        first = session.simulate(request)
        out["first_s"] = time.perf_counter() - t0
        blocks = session._pool.result_blocks
        out["blocks_allocated"] = blocks is not None
        segment = blocks.name if blocks is not None else None
        t0 = time.perf_counter()
        second = session.simulate(request)
        out["second_s"] = time.perf_counter() - t0
        out["same_blocks"] = session._pool.result_blocks is blocks
        out["same_segment"] = (
            session._pool.result_blocks is not None
            and session._pool.result_blocks.name == segment
        )
        out["bytes_equal"] = json.dumps(
            forest_to_dict(first.forest)
        ) == json.dumps(forest_to_dict(second.forest))
    return out


def test_warm_request_reuses_result_blocks(warm_session_blocks):
    """The warm contract, extended: request #2 pays zero block
    allocations — same ResultPlane object, same segment, same bytes."""
    r = warm_session_blocks
    assert r["blocks_allocated"]
    assert r["same_blocks"]
    assert r["same_segment"]
    assert r["bytes_equal"]


def test_record_bench_json(transport_runs, warm_session_blocks, write_bench_json):
    """Write the machine-readable perf snapshot (see ``write_bench_json``)."""
    path = write_bench_json("resultplane", {
        "scene": "computer-lab",
        "workers": WORKERS,
        "photons": PHOTONS,
        "small_photons": SMALL_PHOTONS,
        "transports": {
            mode: {
                "steady_photons_per_s": round(transport_runs[mode]["steady_rate"], 1),
                "boundary_bytes_per_request": transport_runs[mode]["boundary_bytes"],
                "boundary_bytes_small_request":
                    transport_runs[mode]["small_boundary_bytes"],
                "events_per_request": transport_runs[mode]["events"],
            }
            for mode in ("on", "off")
        },
        "warm_session": {
            "first_request_s": round(warm_session_blocks["first_s"], 4),
            "second_request_s": round(warm_session_blocks["second_s"], 4),
            "reuses_result_blocks": warm_session_blocks["same_blocks"],
        },
    })
    assert path.exists()


def test_no_segments_leak(transport_runs, warm_session_blocks):
    """Both transports and the warm session exit clean."""
    assert leaked_segments() == []
