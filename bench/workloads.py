"""The four workloads: inputs from the seed, closed-loop drivers, checks.

Each workload object lives in the child process (``bench/child.py``):
``setup()`` is what ``setup_s`` times, ``run()`` is the timed phase and
returns one record per request, ``verifier().sha()`` re-serves a record
through a fresh serial non-amortized session for the byte check.  The
program only ever sees the generated inputs, never the seed itself.
"""

from __future__ import annotations

import copy
import hashlib
import json
import statistics
import threading
import time
from typing import Optional

from repro import scenes
from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.core.answerfile import forest_from_dict
from repro.core.vectorized import VectorEngine
from repro.service import ServiceConfig, ServiceThread, simulate_path
from repro.service import service as service_module

from . import client, hostinfo
from .trace import SpanView, request_id

#: Every eighth record is re-served through the reference path, plus the
#: top-up and duplicate answers of every fourth service round (they are
#: the ones a cache or a coalescer could get wrong).
SAMPLE_EVERY = 8
ROUND_SAMPLE_EVERY = 4


def derive(seed: int, *labels) -> int:
    """A 47-bit integer that depends on *seed* and *labels* only."""
    text = "/".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big") >> 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def serialise(result) -> bytes:
    # Through the module attribute, so the traced run sees the call.
    return service_module.canonical_answer_bytes(result)


class SerialWorkload:
    """One warm in-process session, one request after another."""

    def __init__(self, name: str, seed: int, *, spec: str, photons: int,
                 warmup: int, traced: int, recorded: int,
                 workers: int = 1, baseline: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.spec = spec.format(scene_seed=derive(seed, name, "scene") % 100_000)
        self.photons = photons
        self.warmup = warmup
        self.traced_count = traced
        self.recorded_count = recorded
        self.workers = workers
        self.baseline_count = baseline
        self.program: Optional[SceneProgram] = None
        self.session: Optional[RenderSession] = None
        self.last_result = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        scene = scenes.get_scene(self.spec)
        self.program = SceneProgram.compile(scene)
        self.session = RenderSession(
            self.program, SessionOptions(workers=self.workers)
        )
        self.session.simulate(SimulateRequest(
            n_photons=self.warmup, seed=derive(self.seed, self.name, "warmup")
        ))

    def reset(self) -> None:
        """Nothing is cached between requests, so a rerun starts equal."""

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    # -- the timed phase ---------------------------------------------------

    def _record(self, index: int, session: RenderSession) -> dict:
        seed = derive(self.seed, self.name, "request", index)
        request = SimulateRequest(n_photons=self.photons, seed=seed)
        start = time.perf_counter()
        result = session.simulate(request)
        latency = time.perf_counter() - start
        body = serialise(result)
        self.last_result = result
        return {
            "key": f"simulate:{self.spec}:{seed:x}:{self.photons}",
            "cls": "cold", "index": index, "spec": self.spec, "seed": seed,
            "photons": self.photons,
            "latency_ms": latency * 1e3, "ok": True,
            "sha": sha256(body), "nbytes": len(body),
        }

    def run(self, *, seconds: Optional[float] = None,
            count: Optional[int] = None,
            session: Optional[RenderSession] = None) -> tuple[list[dict], float]:
        """Requests 0.. until *seconds* pass or *count* are done.

        Returns the records and the busy time, both host-normalised by the
        calibration kernel run before and after each request.
        """
        session = session if session is not None else self.session
        records = []
        start = time.perf_counter()
        kernel = hostinfo.kernel()
        while (len(records) < count if count is not None
               else time.perf_counter() - start < seconds):
            record = self._record(len(records), session)
            before, kernel = kernel, hostinfo.kernel()
            normalise(record, (before + kernel) / 2)
            records.append(record)
        return records, sum(r["norm_ms"] for r in records) / 1e3

    def run_baseline(self) -> list[dict]:
        """The same first requests on one process: the speedup's base."""
        with RenderSession(self.program, SessionOptions()) as serial:
            return self.run(count=self.baseline_count, session=serial)[0]

    # -- checks ------------------------------------------------------------

    def sample(self, records: list[dict]) -> list[dict]:
        return records[::SAMPLE_EVERY]

    def verifier(self) -> "Verifier":
        return Verifier({self.spec: self.program})

    # -- metrics -----------------------------------------------------------

    def layers(self, view: SpanView, records: list[dict]) -> dict:
        out = span_layers(view)
        forest = self.last_result.forest
        out.update(forest_layers(forest))
        out["vectorized.emit_s"] = emit_probe(self.program, self.photons)
        if self.workers > 1:
            out["procpool.trace_phase_s"] = view.total_s("procpool.trace_range")
            out["procpool.build_phase_s"] = (
                view.total_s("procpool.run") - out["procpool.trace_phase_s"]
            )
            out["resultplane.gather_s"] = view.total_s(
                "resultplane.gather_shards"
            )
            runs = view.named("procpool.run")
            out["resultplane.wire_bytes_per_request"] = (
                view.attr_sum("procpool.run", "wire_bytes") / len(runs)
            )
            out["resultplane.overflows"] = view.attr_sum(
                "procpool.run", "overflows"
            )
            out["procpool.result_block_reuses"] = (
                runs[-1]["attrs"]["reuses"] - runs[0]["attrs"]["reuses"]
            )
        return out

    def baseline_layers(self, view: SpanView, baseline: list[dict],
                        pooled: list[dict]) -> dict:
        """Speedup over one process, and the traversal the workers hide."""
        serial = span_layers(view)
        out = {
            name: serial[name] for name in serial
            if name.startswith(("flatoctree.", "vectorized.", "bintree.tall"))
        }
        busy = sum(r["norm_ms"] for r in baseline) / 1e3
        pool_busy = sum(r["norm_ms"] for r in pooled) / 1e3
        rate = sum(r["photons"] for r in baseline) / busy
        speedup = (sum(r["photons"] for r in pooled) / pool_busy) / rate
        out["procpool.serial_photons_per_s"] = rate
        out["procpool.speedup"] = speedup
        out["procpool.efficiency"] = speedup / self.workers
        return out


#: One round of one client, in order.  ``cold`` opens a never-seen key on
#: the generated scene; ``hit``/``topup``/``render`` reuse it; ``stream``
#: and ``dup`` are full traces on cornell-box.  A class runs on one scene
#: only so that its latencies are one population.
ROUND = ("dup", "cold", "hit", "topup", "hit", "render", "hit", "stream")
CLIENTS = 2


class ServiceWorkload:
    """An in-process ``ServiceThread`` under two closed-loop clients."""

    name = "service_mixed"
    workers = 1  # in this process; the sessions it pools are serial too
    baseline_count = 0

    def __init__(self, seed: int, *, base: int, step: int, dup: int,
                 stream: int, width: int, height: int, warmup: int,
                 traced: int, recorded: int) -> None:
        self.seed = seed
        self.base = base
        self.topup_step = step
        self.dup_photons = dup
        self.stream_photons = stream
        self.width = width
        self.height = height
        self.warmup = warmup
        self.traced_count = traced
        self.recorded_count = recorded
        scene_seed = derive(seed, self.name, "scene") % 100_000
        self.hot_spec = f"gen:office-8@{scene_seed}"
        self.full_spec = "cornell-box"
        self.service: Optional[ServiceThread] = None
        self.eye = None
        self.last_answer = b""

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        config = ServiceConfig(
            scenes=(self.full_spec, self.hot_spec), port=0,
            sessions_per_scene=2, queue_limit=8,
            options=SessionOptions(amortize=True),
        )
        self.service = ServiceThread(config).start()
        for spec in config.scenes:
            reply = self._post(simulate_path(spec), {
                "photons": self.warmup,
                "seed": derive(self.seed, self.name, "warmup", spec),
            })
            if reply.status != 200:
                raise RuntimeError(f"warm-up on {spec} got {reply.status}")

    def reset(self) -> None:
        """A fresh service, so the rerun's caches start as empty."""
        self.close()
        self.setup()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _post(self, path: str, body: dict, stream: bool = False) -> client.Reply:
        return client.post(self.service.host, self.service.port, path, body,
                           stream=stream)

    # -- the schedule ------------------------------------------------------

    def _camera(self, key: int) -> dict:
        """A view that depends on the key: the field of view and a nudge."""
        if self.eye is None:
            position = scenes.get_scene(self.hot_spec).default_camera["position"]
            self.eye = (position.x, position.y, position.z)
        nudge = (derive(key, "eye") % 1000) / 1000.0 - 0.5
        return {
            "fov": 40.0 + derive(key, "fov") % 20,
            "eye": [self.eye[0] + 0.2 * nudge, self.eye[1], self.eye[2]],
            "width": self.width, "height": self.height,
        }

    def request_at(self, who: int, round_: int, position: int) -> dict:
        """The request at *position* of *round_* for client *who*."""
        cls = ROUND[position]
        key = derive(self.seed, self.name, "key", who, round_)
        topped = self.base + self.topup_step
        if cls == "cold":
            spec, seed, photons = self.hot_spec, key, self.base
        elif cls == "stream":
            seed = derive(self.seed, self.name, "stream", who, round_)
            spec, photons = self.full_spec, self.stream_photons
        elif cls == "dup":
            seed = derive(self.seed, self.name, "dup", round_)
            spec, photons = self.full_spec, self.dup_photons
        else:
            spec, seed = self.hot_spec, key
            photons = self.base if position == 2 else topped
        body = {"photons": photons, "seed": seed}
        kind = "simulate"
        path = simulate_path(spec, stream=cls == "stream")
        if cls == "render":
            kind = "render"
            path = path.replace("/simulate", "/render")
            body.update(self._camera(key))
        elif cls == "stream":
            body["batch"] = max(1, photons // 3)
        camera = body if cls == "render" else None
        suffix = "" if camera is None else ":" + json.dumps(camera, sort_keys=True)
        return {
            "key": f"{kind}:{spec}:{seed:x}:{photons}{suffix}",
            "rid": request_id(seed, photons, render=cls == "render"),
            "cls": cls, "client": who, "round": round_, "position": position,
            "spec": spec, "seed": seed, "photons": photons,
            "camera": camera, "path": path, "body": body,
        }

    def _serve(self, record: dict) -> dict:
        reply = self._post(record.pop("path"), record.pop("body"),
                           stream=record["cls"] == "stream")
        record.update(
            latency_ms=reply.total_ms, connect_ms=reply.connect_ms,
            first_ms=reply.first_ms, ok=reply.status == 200,
            sha=sha256(reply.answer), nbytes=reply.nbytes,
        )
        if record["cls"] == "topup" and record["client"] == 0:
            self.last_answer = reply.answer  # one client's: no race on which
        return record

    # -- the timed phase ---------------------------------------------------

    def run(self, *, seconds: Optional[float] = None,
            count: Optional[int] = None) -> tuple[list[dict], float]:
        """Whole rounds until *seconds* pass or *count* rounds are done.

        Both clients meet at a barrier before every round.  With both idle
        the barrier runs the calibration kernel, closes the round just
        ended and decides whether another follows, so both stop after the
        same round and rates are over whole rounds.  Returns the records
        and the rounds' total time, both host-normalised by the kernel
        readings on either side of each round.
        """
        records: list[list[dict]] = [[] for _ in range(CLIENTS)]
        errors: list[BaseException] = []
        kernels: list[float] = []
        rounds: list[float] = []  # seconds from release to the last arrival
        state = {"stop": False, "released": 0.0}
        start = time.perf_counter()

        def between_rounds() -> None:
            arrived = time.perf_counter()
            if kernels:
                rounds.append(arrived - state["released"])
            kernels.append(hostinfo.kernel())
            state["stop"] = (
                len(rounds) >= count if count is not None
                else bool(rounds) and arrived - start >= seconds
            )
            state["released"] = time.perf_counter()

        barrier = threading.Barrier(CLIENTS, action=between_rounds)

        def drive(who: int) -> None:
            try:
                round_ = 0
                while True:
                    barrier.wait(timeout=120)
                    if state["stop"]:
                        return
                    for position in range(len(ROUND)):
                        records[who].append(
                            self._serve(self.request_at(who, round_, position))
                        )
                    round_ += 1
            except BaseException as exc:  # re-raised by run(), below
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=drive, args=(who,), name=f"client-{who}")
            for who in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        bracket = [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
        served = records[0] + records[1]
        for record in served:
            normalise(record, bracket[record["round"]])
        busy = sum(
            hostinfo.normalised(seconds_, kernel)
            for seconds_, kernel in zip(rounds, bracket)
        )
        return served, busy

    # -- checks ------------------------------------------------------------

    def sample(self, records: list[dict]) -> list[dict]:
        picked = records[::SAMPLE_EVERY]
        picked += [
            r for r in records
            if r["cls"] in ("topup", "dup")
            and r["round"] % ROUND_SAMPLE_EVERY == 0 and r not in picked
        ]
        return picked

    def verifier(self) -> "Verifier":
        return Verifier({
            spec: SceneProgram.compile(scenes.get_scene(spec))
            for spec in (self.full_spec, self.hot_spec)
        })

    def stats(self) -> dict:
        return json.loads(client_get(self.service, "/stats"))

    # -- metrics -----------------------------------------------------------

    def layers(self, view: SpanView, records: list[dict]) -> dict:
        out = span_layers(view)
        forest = forest_from_dict(json.loads(self.last_answer))
        out.update(forest_layers(forest))
        out.update(service_layers(view, records, self.stats()))
        return out


def client_get(service: ServiceThread, path: str) -> bytes:
    status, _, body = service.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} got {status}")
    return body


class Verifier:
    """Fresh serial non-amortized sessions: the reference for any record."""

    def __init__(self, programs: dict) -> None:
        self.sessions = {
            spec: RenderSession(program, SessionOptions())
            for spec, program in programs.items()
        }

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def sha(self, record: dict) -> str:
        session = self.sessions[record["spec"]]
        result = session.simulate(SimulateRequest(
            n_photons=record["photons"], seed=record["seed"]
        ))
        camera = record.get("camera")
        if camera is None:
            return sha256(serialise(result))
        # The service's render pipeline, step for step.
        from repro.core.viewing import Camera
        from repro.geometry import Vec3
        from repro.image.ppm import ppm_bytes
        from repro.image.tonemap import to_uint8

        defaults = session.program.default_camera
        image = session.render(result, Camera(
            position=Vec3(*camera["eye"]), look_at=defaults["look_at"],
            vertical_fov_degrees=camera["fov"],
            width=camera["width"], height=camera["height"],
        ))
        return sha256(ppm_bytes(to_uint8(image, key=0.4)))


# -- per-layer metrics from spans --------------------------------------------


def span_layers(view: SpanView) -> dict:
    """What every workload reads off its spans the same way."""
    simulate = view.total_s("session.simulate")
    traverse = view.total_s("flatoctree.traverse")
    tally = view.total_s("bintree.tally_block")
    events = view.attr_sum("bintree.tally_block", "events")
    engine = ("vectorized.run", "vectorized.trace_range")
    photons = sum(view.attr_sum(name, "photons") for name in engine)

    def per_photon(key: str) -> float:
        total = sum(view.attr_sum(name, key) for name in engine)
        return total / photons if photons else 0.0

    return {
        "session.simulate_s": simulate,
        "flatoctree.traverse_s": traverse,
        "flatoctree.traverse_share": traverse / simulate if simulate else 0.0,
        "flatoctree.traverse_calls": view.count("flatoctree.traverse"),
        "flatoctree.slab_tests_per_photon": per_photon("box_tests"),
        "vectorized.patch_tests_per_photon": per_photon("patch_tests"),
        "vectorized.trace_self_s": view.self_s(*engine),
        "vectorized.events_per_photon": events / photons if photons else 0.0,
        "vectorized.reflections_per_photon": per_photon("reflections"),
        "vectorized.escapes": sum(
            view.attr_sum(name, "escapes") for name in engine
        ),
        "vectorized.bounce_limit_hits": sum(
            view.attr_sum(name, "bounce_limit_hits") for name in engine
        ),
        "bintree.tally_s": tally,
        "bintree.tally_share": tally / simulate if simulate else 0.0,
        "bintree.tallies_per_s": events / tally if tally else 0.0,
        "viewing.render_s": view.total_s("viewing.render"),
        "ppm.encode_s": view.total_s("ppm.encode"),
        "answerfile.serialise_s": view.total_s("answerfile.serialise"),
        "answerfile.bytes": view.attr_sum("answerfile.serialise", "bytes"),
        "session.simulate_s.cold": view.total_s(
            "session.simulate", lambda s: observed_class(s) == "cold"
        ),
    }


def setup_layers(view: SpanView, programs: list) -> dict:
    """The setup spans, plus the sizes of the compiled programs served."""
    return {
        "scenes.build_s": view.total_s("scenes.get_scene"),
        "program.compile_s": view.self_s("program.compile"),
        "shmplane.publish_s": view.total_s("shmplane.publish"),
        "shmplane.segment_bytes": view.attr_sum(
            "shmplane.publish", "segment_bytes"
        ),
        "procpool.start_s": view.total_s("procpool.start"),
        "session.open_s": view.self_s("session.open"),
        "program.patches": sum(p.patch_count for p in programs),
        "flatoctree.nodes": sum(p.arrays.flat.node_count for p in programs),
        "flatoctree.leaves": sum(p.arrays.flat.leaf_count for p in programs),
    }


def probe(call) -> float:
    """Median host-normalised seconds of three calls of *call*."""
    timings = []
    kernel = hostinfo.kernel()
    for _ in range(3):
        start = time.perf_counter()
        call()
        seconds = time.perf_counter() - start
        before, kernel = kernel, hostinfo.kernel()
        timings.append(hostinfo.normalised(seconds, (before + kernel) / 2))
    return median(timings)


def forest_layers(forest) -> dict:
    return {
        "bintree.leaves": forest.leaf_count,
        "bintree.nodes": forest.node_count,
        "bintree.deepcopy_s": probe(lambda: copy.deepcopy(forest)),
    }


def emit_probe(program: SceneProgram, photons: int) -> float:
    """Seconds ``emit_range`` takes for one request's photons."""
    engine = VectorEngine(arrays=program.arrays)
    return probe(lambda: engine.emit_range(1, 0, photons))


def observed_class(span: dict) -> str:
    """What a ``simulate`` span did, read off the photons it traced."""
    traced, photons = span["attrs"]["traced"], span["attrs"]["photons"]
    if traced == 0:
        return "hit"
    return "cold" if traced == photons else "topup"


def normalise(record: dict, kernel_s: float) -> None:
    """Add the record's times in reference-host milliseconds."""
    record["kernel_s"] = kernel_s
    for field in ("latency_ms", "first_ms", "connect_ms"):
        if record.get(field) is not None:
            record["norm_" + field] = hostinfo.normalised(record[field], kernel_s)
    record["norm_ms"] = record["norm_latency_ms"]


def end_to_end(records: list[dict], busy: float) -> dict:
    """The gated metrics a timed phase yields (all host-normalised)."""
    return {
        "photons_per_s": sum(r["photons"] for r in records) / busy,
        "requests_per_s": len(records) / busy,
        "cold_p50_ms": class_p50(records, "cold"),
    }


def class_p50(records: list[dict], cls: str, field: str = "norm_ms") -> float:
    return median(r[field] for r in records if r["cls"] == cls)


def service_layers(view: SpanView, records: list[dict], stats: dict) -> dict:
    simulate = view.named("session.simulate")
    dup_rids = {r["rid"] for r in records if r["cls"] == "dup"}

    def span_class(span: dict) -> str:
        return "dup" if span["request"] in dup_rids else observed_class(span)

    seconds = {cls: 0.0 for cls in ("cold", "hit", "topup", "dup")}
    for span in simulate:
        seconds[span_class(span)] += (
            (span["end"] - span["start"]) * view.scale / 1e9
        )
    # The per-key classes as scheduled, against what the cache did for
    # them.  (Of a ``dup`` pair the later may find the earlier's forest.)
    scheduled = sum(
        1 for r in records if r["cls"] in ("hit", "topup", "render")
    )
    reused = sum(
        1 for s in simulate
        if s["request"] not in dup_rids and observed_class(s) != "cold"
    )
    amortize = stats["amortize"]
    observed = amortize["exact_hits"] + amortize["topups"]
    requested = sum(s["attrs"]["photons"] for s in simulate)
    traced = sum(s["attrs"]["traced"] for s in simulate)
    lookups = view.count("amortize.lookup")
    pools = [scene["pool"] for scene in stats["scenes"].values()]
    waits = view.durations_ms("pool.acquire")
    dup_pairs = {}
    for r in records:
        if r["cls"] == "dup":
            dup_pairs[r["round"]] = max(
                dup_pairs.get(r["round"], 0.0), r["norm_ms"]
            )
    out = {
        f"session.simulate_s.{cls}": value for cls, value in seconds.items()
    }
    out.update({
        "amortize.lookups": lookups,
        "amortize.exact_hits": amortize["exact_hits"],
        "amortize.topups": amortize["topups"],
        "amortize.camera_only_hits": amortize["camera_only_hits"],
        "amortize.photons_saved": amortize["photons_saved"],
        "amortize.forest_entries": sum(
            scene["amortize"]["forest_entries"]
            for scene in stats["scenes"].values()
        ),
        "amortize.hit_ratio": observed / lookups if lookups else 0.0,
        "amortize.photons_traced_share": traced / requested,
        "amortize.lookup_s": view.total_s("amortize.lookup"),
        "amortize.store_s": view.total_s("amortize.store"),
        "amortize.class_drift": abs(reused - scheduled) / scheduled,
        "pool.acquire_wait_ms_p50": median(waits),
        "pool.acquire_wait_ms_p90": percentile(waits, 0.9),
        "pool.acquired": sum(p["acquired"] for p in pools),
        "pool.rejected_queue_full": sum(p["rejected_queue_full"] for p in pools),
        "pool.rejected_deadline": sum(p["rejected_deadline"] for p in pools),
        "registry.get_ms_p50": median(view.durations_ms("registry.get")),
        "registry.hits": stats["programs"]["hits"],
        "registry.misses": stats["programs"]["misses"],
        "registry.evictions": stats["programs"]["evictions"],
        "http.parse_us_p50": 1e3 * median(
            view.durations_ms("http.read_request")
        ),
        "http.connect_ms_p50": median(r["norm_connect_ms"] for r in records),
        "http.overhead_ms_p50": median(http_overheads(view, records)),
        "http.response_bytes": sum(r["nbytes"] for r in records),
        "service.served_oneshot": stats["requests"]["served_oneshot"],
        "service.served_stream": stats["requests"]["served_stream"],
        "service.served_render": stats["requests"]["served_render"],
        "service.bad_requests": stats["requests"]["bad_requests"],
        "service.hit_p50_ms": class_p50(records, "hit"),
        "service.topup_p50_ms": class_p50(records, "topup"),
        "service.render_p50_ms": class_p50(records, "render"),
        "service.stream_first_p50_ms": class_p50(records, "stream", "norm_first_ms"),
        "service.dup_p50_ms": median(dup_pairs.values()),
    })
    return out


def http_overheads(view: SpanView, records: list[dict]) -> list[float]:
    """Client latency minus queue wait, session time and serialisation.

    Matched per request id in order of occurrence; a key's requests are
    sequential within its one client.  ``dup`` (two at once under one id)
    and ``stream`` (no ``simulate`` span) are left out.
    """
    inside: dict[str, list[float]] = {}
    for name in ("pool.acquire", "session.simulate", "session.render_view",
                 "answerfile.serialise", "ppm.encode"):
        seen: dict[str, int] = {}
        for span in sorted(view.named(name), key=lambda s: s["start"]):
            rid = span["request"]
            if rid is None or span["parent"] != -1:
                continue
            nth = seen.get(rid, 0)
            seen[rid] = nth + 1
            slots = inside.setdefault(rid, [])
            while len(slots) <= nth:
                slots.append(0.0)
            slots[nth] += (span["end"] - span["start"]) * view.scale / 1e6
    overheads = []
    seen = {}
    for record in records:
        if record["cls"] in ("dup", "stream"):
            continue
        nth = seen.get(record["rid"], 0)
        seen[record["rid"]] = nth + 1
        slots = inside.get(record["rid"], [])
        if nth < len(slots):
            overheads.append(record["norm_ms"] - slots[nth])
    return overheads


# -- the table ---------------------------------------------------------------


def make(name: str, seed: int, smoke: bool = False):
    """The workload *name* at benchmark size, or at smoke-test size."""
    if name == "cornell_serial":
        size = (dict(photons=400, warmup=100, traced=2, recorded=3) if smoke
                else dict(photons=10_000, warmup=1_000, traced=20, recorded=150))
        return SerialWorkload(name, seed, spec="cornell-box", **size)
    if name == "office_scale_serial":
        if smoke:
            return SerialWorkload(
                name, seed, spec="gen:office-8@{scene_seed}", photons=100,
                warmup=50, traced=2, recorded=3,
            )
        return SerialWorkload(
            name, seed, spec="gen:office-259@{scene_seed}", photons=500,
            warmup=200, traced=5, recorded=40,
        )
    if name == "lab_pool2":
        size = (dict(photons=100, warmup=50, traced=2, recorded=3, baseline=1)
                if smoke else
                dict(photons=3_000, warmup=300, traced=5, recorded=40,
                     baseline=3))
        return SerialWorkload(name, seed, spec="computer-lab", workers=2, **size)
    if name == "service_mixed":
        size = (dict(base=60, step=40, dup=100, stream=90, width=8, height=6,
                     warmup=20, traced=1, recorded=2) if smoke else
                dict(base=300, step=200, dup=1_000, stream=750, width=64,
                     height=48, warmup=200, traced=5, recorded=40))
        return ServiceWorkload(seed, **size)
    raise KeyError(name)
