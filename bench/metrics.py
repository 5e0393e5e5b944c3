"""The metric and workload tables: the single source ``BENCHMARK.json`` mirrors.

``bench/test_bench_smoke.py`` asserts the two agree, so a metric cannot
be printed without being declared (or the other way round).
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

DEFAULT_SEED = 24301
RUN_SECONDS = 10

#: name -> one-line reason the workload exists (also in BENCHMARK.json).
WORKLOADS = {
    "cornell_serial": (
        "30 patches, linear scan: request time splits between the bin-forest "
        "build and emit+bounce, none in octree traversal"
    ),
    "office_scale_serial": (
        "10.9k generated patches, flat octree: nearly all request time is "
        "FlatOctree.traverse; also the heavy scene-build/compile setup case"
    ),
    "lab_pool2": (
        "the paper's computer-lab on a 2-worker PhotonPool: the only workload "
        "crossing the process boundary (scene plane, result plane, merge)"
    ),
    "service_mixed": (
        "HTTP service, 2 closed-loop clients, six request classes: ForestCache "
        "read, written and topped up; tracing bypassed for most photons served"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: True for counts that must repeat bit-for-bit on one seed.
    exact: bool = False


#: Times are host-normalised (``bench/hostinfo.py``).  The time bounds are
#: the contract's widest: on this shared 2-core host the spread of ten
#: runs of one commit reached 0.19-0.23 on ``lab_pool2`` even normalised
#: (``bench/README.md``, "Host and noise"), and a bound below the spread
#: rejects unchanged code.
END_TO_END = (
    EndToEnd("photons_per_s", "1/s", "higher", 0.25),
    EndToEnd("requests_per_s", "1/s", "higher", 0.25),
    EndToEnd("cold_p50_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
)


def _t(name: str, unit: str = "s") -> PerLayer:
    return PerLayer(name, unit, "lower")


def _n(name: str, unit: str = "count", better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better, exact=True)


PER_LAYER = (
    # -> setup_s
    _t("scenes.build_s"),
    _t("program.compile_s"),
    _n("program.patches"),
    _t("shmplane.publish_s"),
    _n("shmplane.segment_bytes", "B"),
    _t("procpool.start_s"),
    _t("session.open_s"),
    # -> photons_per_s where traversal dominates
    _t("flatoctree.traverse_s"),
    _t("flatoctree.traverse_share", "share"),
    _n("flatoctree.traverse_calls"),
    _n("flatoctree.slab_tests_per_photon", "1/photon"),
    _n("vectorized.patch_tests_per_photon", "1/photon"),
    _n("flatoctree.nodes"),
    _n("flatoctree.leaves"),
    # -> photons_per_s where emit + bounce shows
    _t("vectorized.trace_self_s"),
    _t("vectorized.emit_s"),
    _n("vectorized.events_per_photon", "1/photon"),
    _n("vectorized.reflections_per_photon", "1/photon"),
    _n("vectorized.escapes"),
    _n("vectorized.bounce_limit_hits"),
    # -> photons_per_s where the forest build shows; hit/topup latency
    _t("bintree.tally_s"),
    _t("bintree.tally_share", "share"),
    PerLayer("bintree.tallies_per_s", "1/s", "higher"),
    _n("bintree.leaves"),
    _n("bintree.nodes"),
    _t("bintree.deepcopy_s"),
    # -> lab_pool2 only
    _t("procpool.trace_phase_s"),
    _t("procpool.build_phase_s"),
    _t("resultplane.gather_s"),
    _n("resultplane.wire_bytes_per_request", "B"),
    _n("resultplane.overflows"),
    _n("procpool.result_block_reuses", better="higher"),
    PerLayer("procpool.serial_photons_per_s", "1/s", "higher"),
    PerLayer("procpool.speedup", "x", "higher"),
    PerLayer("procpool.efficiency", "share", "higher"),
    _t("procpool.worker_peak_rss_mb", "MB"),
    # -> service_mixed: requests_per_s, hit/topup latency
    _n("amortize.lookups"),
    _n("amortize.exact_hits", better="higher"),
    _n("amortize.topups", better="higher"),
    _n("amortize.camera_only_hits", better="higher"),
    _n("amortize.photons_saved", better="higher"),
    _n("amortize.forest_entries"),
    _n("amortize.hit_ratio", "share", "higher"),
    _n("amortize.photons_traced_share", "share"),
    _t("amortize.lookup_s"),
    _t("amortize.store_s"),
    _n("amortize.class_drift", "share"),
    # -> the matching request class
    _t("session.simulate_s"),
    _t("session.simulate_s.cold"),
    _t("session.simulate_s.hit"),
    _t("session.simulate_s.topup"),
    _t("session.simulate_s.dup"),
    _t("viewing.render_s"),
    _t("ppm.encode_s"),
    _t("answerfile.serialise_s"),
    _n("answerfile.bytes", "B"),
    # -> queue wait, kept apart from service time
    _t("pool.acquire_wait_ms_p50", "ms"),
    _t("pool.acquire_wait_ms_p90", "ms"),
    _n("pool.acquired"),
    _n("pool.rejected_queue_full"),
    _n("pool.rejected_deadline"),
    _t("registry.get_ms_p50", "ms"),
    _n("registry.hits", better="higher"),
    _n("registry.misses"),
    _n("registry.evictions"),
    # -> hit latency, requests_per_s
    _t("http.parse_us_p50", "us"),
    _t("http.connect_ms_p50", "ms"),
    _t("http.overhead_ms_p50", "ms"),
    _n("http.response_bytes", "B"),
    _n("service.served_oneshot", better="higher"),
    _n("service.served_stream", better="higher"),
    _n("service.served_render", better="higher"),
    _n("service.bad_requests"),
    # per-class client latency (service_mixed); cold is end-to-end
    _t("service.hit_p50_ms", "ms"),
    _t("service.topup_p50_ms", "ms"),
    _t("service.render_p50_ms", "ms"),
    _t("service.stream_first_p50_ms", "ms"),
    _t("service.dup_p50_ms", "ms"),
    # host and the harness itself
    _n("host.nproc", better="higher"),
    _t("host.calib_s"),
    _t("host.calib_spread", "share"),
    _t("bench.trace_overhead_share", "share"),
    _n("bench.traced_requests", better="higher"),
)

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BETTER = {m.name: m.better for m in END_TO_END + PER_LAYER}
BOUNDS = {m.name: m.bound for m in END_TO_END}


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal (the smoke test checks)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
