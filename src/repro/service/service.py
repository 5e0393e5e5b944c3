"""The asyncio multi-tenant render service.

This is the traffic-facing composition of the serving tier: a
:class:`RenderService` hosts many compiled scene programs in one
process (:class:`~repro.service.registry.ProgramRegistry`), a bounded
pool of warm sessions per scene
(:class:`~repro.service.pool.SessionPool`), and a stdlib asyncio HTTP
front end (:mod:`repro.service.http`) — the Iray shape: a long-lived
light-transport *server* streaming progressively refining answers to
interactive clients.

Endpoints:

* ``POST /scenes/{spec}/simulate`` — one-shot.  The response body is
  the canonical answer JSON, **byte-identical** to the answer file
  ``repro simulate`` writes for the same request (the determinism
  contract survives the service hop end to end).
* ``POST /scenes/{spec}/simulate?stream=1`` — progressive.  A chunked
  NDJSON stream of per-batch progress lines over the session's
  cumulative :meth:`~repro.api.RenderSession.simulate_stream`, whose
  **final line** is the same canonical answer document.
* ``POST /scenes/{spec}/render`` — the viewing stage as a serve: body
  may add ``eye``, ``look_at``, ``fov``, ``width``, ``height`` camera
  overrides; the response is a binary PPM (P6) image.  With
  amortization on, a render whose trace is already cached re-renders
  without tracing a photon (the camera-only fast path).
* ``GET /healthz`` — liveness.
* ``GET /stats`` — resident programs, pool occupancy and queue depths,
  hit/miss/eviction, admission, amortization and kernel-gate counters.

Blocking session work (tracing, canonical serialisation) runs on a
dedicated thread-pool executor; the event loop only ever does parsing,
admission, and chunk shuttling.  Request bodies are JSON objects::

    {"photons": 2000, "seed": 123, "sigma": 3.0, "deadline": 10.0,
     "batch": 512}

all fields optional (defaults mirror the ``repro simulate`` CLI), with
``batch`` (stream chunk size) and ``deadline`` (seconds, admission +
service) being service-level extras.  Every route admits through one
path: a deadline spent before a session is in hand is a 504 before any
response byte, streams included.  ``target_error`` (body field or
``?target_error=`` query parameter, query winning) enables
convergence-driven early stop: the answer is the exact canonical
answer for the photons actually traced, with ``X-Repro-Photons-Traced``
and ``X-Repro-Achieved-Error`` response headers reporting the stop.
Unknown fields are rejected — the same strictness the scene schema
applies.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional
from urllib.parse import quote

from ..api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from ..api.gate import KERNEL_GATE
from ..core.answerfile import forest_to_dict
from ..core.bintree import SplitPolicy
from . import http
from .errors import (
    BadRequest,
    DeadlineExceeded,
    SceneNotServed,
    ServiceError,
)
from .pool import SessionPool
from .registry import ProgramRegistry

__all__ = ["RenderService", "ServiceConfig", "canonical_answer_bytes"]

#: Default per-request deadline when neither the request nor the config
#: names one (generous: admission is what protects the service).
DEFAULT_DEADLINE_SECONDS = 30.0

#: Body fields a simulate request may carry (strict, like the scene schema).
_REQUEST_FIELDS = frozenset(
    {"photons", "seed", "sigma", "deadline", "batch", "target_error"}
)

#: Body fields a render request may carry: the simulate fields (minus
#: the stream-only ``batch``) plus the camera overrides.
_RENDER_FIELDS = (_REQUEST_FIELDS - {"batch"}) | frozenset(
    {"eye", "look_at", "fov", "width", "height"}
)

#: Sentinel returned by the executor-side stream step on exhaustion.
_STREAM_DONE = object()


def _as_int(value: object, name: str) -> int:
    """Field *name* of a request body: a JSON integer, nothing else.

    ``True`` is an ``int`` to Python and ``2.9`` or ``"7"`` convert
    silently; all three are the client's mistake, answered with a 400
    that names the field rather than served as 1, 2 or 7.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {name!r} must be an integer, got {_shown(value)}")
    return value


def _as_number(value: object, name: str, kind: str = "a number") -> float:
    """Field *name* of a request body: a JSON number (not a bool or string).

    *kind* is what the error message says the field must be.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"field {name!r} must be {kind}, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise BadRequest(f"field {name!r} is out of range, got {_shown(value)}") from None


def _shown(value: object) -> str:
    """*value* as the client sent it, cut short for an error message."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def canonical_answer_bytes(result) -> bytes:
    """The canonical answer serialisation of a simulation result.

    Exactly the bytes :func:`repro.core.answerfile.save_answer` writes
    (same encoder, same defaults), so a served response can be compared
    byte-for-byte against a CLI answer file.
    """
    return json.dumps(forest_to_dict(result.forest)).encode("utf-8")


@dataclass(frozen=True)
class ServiceConfig:
    """Provisioning of one :class:`RenderService`.

    Attributes:
        scenes: The serving set — every spec (registered name,
            ``file:...``, ``gen:...``) this service will answer for.
            Specs outside the set 404; listed specs are admitted (and
            re-admitted after eviction) on demand.
        host / port: Bind address; port ``0`` picks an ephemeral port
            (read it back from :attr:`RenderService.port`).
        max_programs / max_bytes: Residency budget of the program
            registry (see :class:`~repro.service.registry.ProgramRegistry`).
        sessions_per_scene: Session-pool bound per resident scene.
        queue_limit: Bounded wait queue per scene; the next acquirer is
            rejected with HTTP 429.
        default_deadline: Per-request deadline (seconds) when the
            request body does not set one.
        options: The :class:`~repro.api.SessionOptions` every pooled
            session is provisioned with (workers, amortization).
        max_body_bytes: Request-body cap (HTTP 413 above it).
    """

    scenes: tuple[str, ...]
    host: str = "127.0.0.1"
    port: int = 0
    max_programs: int = 4
    max_bytes: Optional[int] = None
    sessions_per_scene: int = 2
    queue_limit: int = 8
    default_deadline: float = DEFAULT_DEADLINE_SECONDS
    options: SessionOptions = field(default_factory=SessionOptions)
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if not self.scenes:
            raise ValueError("a service needs at least one scene spec")
        if len(set(self.scenes)) != len(self.scenes):
            raise ValueError(f"duplicate scene specs in {self.scenes}")
        if self.sessions_per_scene < 1:
            raise ValueError("sessions_per_scene must be at least 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if not (math.isfinite(self.default_deadline) and self.default_deadline > 0):
            raise ValueError(
                "default_deadline must be a positive finite number of "
                f"seconds, got {self.default_deadline}"
            )
        if self.max_body_bytes < 0:
            raise ValueError(
                f"max_body_bytes must be non-negative, got {self.max_body_bytes}"
            )
        if self.max_programs < 1:
            raise ValueError("max_programs must be at least 1")

    @property
    def resolved_executor_threads(self) -> int:
        """Blocking-work thread count of the service's executor.

        One thread per pooled session, so every one can be admitted —
        answering a cache hit, waiting on its workers or at the kernel
        gate — plus two for cleanup.  It sizes admission, not compute:
        in-process kernel sections run one at a time
        (:mod:`repro.api.gate`).
        """
        return self.max_programs * self.sessions_per_scene + 2


@dataclass
class _SimulateParams:
    """A parsed, validated simulate request body."""

    request: SimulateRequest
    deadline: float
    batch: Optional[int]


@dataclass
class _Checkout:
    """A session checked out for one request (see ``_checkout``)."""

    pool: SessionPool
    session: RenderSession
    #: Loop time at which the request's deadline expires.
    expires: float
    #: The render's camera (``None`` on the simulate routes).
    camera: object = None


class RenderService:
    """Many scenes, one process, HTTP in front.  See the module doc.

    Lifecycle: :meth:`start` binds the socket, :meth:`serve_forever`
    blocks until :meth:`close` (idempotent) tears everything down —
    server first, then in-flight handlers, then the executor, then
    every session pool, so by the time :meth:`close` returns all
    ``/dev/shm`` segments this process published are unlinked
    (:func:`repro.parallel.shmplane.leaked_segments` is empty).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._allowed = set(config.scenes)
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._registry: Optional[ProgramRegistry] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._handlers: set[asyncio.Task] = set()
        self._background: set[asyncio.Future] = set()
        self._closed = False
        # Traffic counters (/stats).
        self.served_oneshot = 0
        self.served_stream = 0
        self.served_render = 0
        self.rejected_deadline = 0
        self.cancelled_streams = 0
        self.bad_requests = 0
        self.not_found = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Validate the serving set, then bind and start accepting."""
        self._loop = asyncio.get_running_loop()
        self._check_scene_specs()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.resolved_executor_threads,
            thread_name_prefix="repro-service",
        )
        self._registry = ProgramRegistry(
            self._admit,
            max_programs=self.config.max_programs,
            max_bytes=self.config.max_bytes,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    def _check_scene_specs(self) -> None:
        """Fail startup loudly on specs that can never resolve.

        Registered names are checked against the registry; ``file:``
        specs must point at an existing file.  ``gen:`` specs are
        validated by generating (cheap at boot, and the generator is
        the only authority on its grammar).
        """
        from ..scenes import get_scene, scene_registry

        known = scene_registry()
        for spec in self.config.scenes:
            if spec.startswith("file:"):
                import os

                path = spec[len("file:"):]
                if not os.path.exists(path):
                    raise ValueError(f"scene file not found: {path!r}")
            elif spec.startswith("gen:"):
                get_scene(spec)  # raises ValueError on a bad spec
            elif spec not in known:
                raise ValueError(
                    f"unknown scene {spec!r}; valid names: {sorted(known)}, "
                    "or use 'file:<path>' / 'gen:<spec>'"
                )

    async def serve_forever(self) -> None:
        """Serve accepted connections until cancelled; requires start()."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful teardown; see the class docstring for ordering."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        # Stream/one-shot cleanups queue release jobs through the
        # executor; draining it guarantees no trace or gen.close() is
        # still running when the pools are force-retired below.
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._executor.shutdown
            )
        # Cleanup callbacks land on the loop via call_soon_threadsafe;
        # yield a few times so every queued release task materialises in
        # _background before it is drained.
        for _ in range(3):
            await asyncio.sleep(0)
        while self._background:
            await asyncio.gather(
                *list(self._background), return_exceptions=True
            )
        if self._registry is not None:
            await self._registry.close(force=True)

    # -- admission ---------------------------------------------------------

    async def _admit(self, spec: str) -> SessionPool:
        """Registry factory: build + compile the scene off-loop."""
        assert self._loop is not None and self._executor is not None

        def build() -> SceneProgram:
            from ..scenes import get_scene

            return SceneProgram.compile(get_scene(spec), eager=True)

        program = await self._loop.run_in_executor(self._executor, build)
        return SessionPool(
            program,
            self.config.options,
            max_sessions=self.config.sessions_per_scene,
            queue_limit=self.config.queue_limit,
            label=spec,
        )

    async def _checkout(
        self, spec: str, deadline: float, camera_spec: Optional[dict] = None
    ) -> _Checkout:
        """The one admission path: the scene's pool, then a session.

        Every route comes through here.  The deadline covers both steps:
        it is checked after the pool lookup (which may admit the scene),
        bounds the wait for a session, and is checked again once one is
        in hand, so a deadline spent in the queue is a 504 before any
        response byte.  A render's *camera_spec* becomes its camera
        between the two steps (it needs the scene's default view): a
        view no ray can be built for is the client's error and costs it
        no session.
        """
        assert self._loop is not None
        if spec not in self._allowed:
            served = ", ".join(sorted(self._allowed))
            raise SceneNotServed(
                f"scene {spec!r} is not served here; serving: {served}"
            )
        assert self._registry is not None
        expires = self._loop.time() + deadline
        late = f"deadline of {deadline:.3f}s elapsed during admission"
        pool = await self._registry.get(spec)
        camera = None
        if camera_spec is not None:
            camera = _build_camera(pool.program.default_camera, camera_spec)
        remaining = expires - self._loop.time()
        if remaining <= 0:
            raise DeadlineExceeded(late)
        session = await pool.acquire(timeout=remaining)
        if self._loop.time() >= expires:
            await pool.release(session)
            raise DeadlineExceeded(late)
        return _Checkout(pool, session, expires, camera)

    async def _run_checked_out(self, checkout: _Checkout, job, late: str):
        """*job(session)* on the executor, answered within the deadline.

        The session goes back to its pool when the job really ends,
        which may be after the deadline response: a timed-out trace
        cannot be interrupted, only declined.  *late* is the 504's
        message.
        """
        assert self._loop is not None and self._executor is not None
        fut = self._loop.run_in_executor(self._executor, job, checkout.session)
        fut.add_done_callback(lambda _f: self._spawn_release(checkout))
        try:
            return await asyncio.wait_for(
                asyncio.shield(fut), checkout.expires - self._loop.time()
            )
        except asyncio.TimeoutError:
            raise DeadlineExceeded(late) from None

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            try:
                request = await http.read_request(
                    reader, self.config.max_body_bytes
                )
            except ServiceError as exc:
                writer.write(
                    http.json_response(exc.status, exc.to_payload())
                )
                await writer.drain()
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; per-route cleanup already ran
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # last resort: a full /dev/shm, say
            print(f"repro-serve: handler error: {exc!r}", file=sys.stderr)
            try:
                writer.write(
                    http.json_response(
                        500,
                        {"error": {"code": "internal-error",
                                   "message": str(exc)}},
                    )
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: http.HttpRequest, writer) -> None:
        try:
            await self._route(request, writer)
        except ServiceError as exc:
            if isinstance(exc, BadRequest):
                self.bad_requests += 1
            elif isinstance(exc, SceneNotServed):
                self.not_found += 1
            elif isinstance(exc, DeadlineExceeded):
                self.rejected_deadline += 1
            extra = ()
            if exc.retry_after is not None:
                extra = (("Retry-After", f"{exc.retry_after:g}"),)
            writer.write(
                http.json_response(
                    exc.status, exc.to_payload(), extra_headers=extra
                )
            )
            await writer.drain()

    async def _route(self, request: http.HttpRequest, writer) -> None:
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                raise _method_not_allowed(request.method, path)
            writer.write(http.json_response(200, {"status": "ok"}))
            await writer.drain()
            return
        if path == "/stats":
            if request.method != "GET":
                raise _method_not_allowed(request.method, path)
            writer.write(http.json_response(200, self.stats()))
            await writer.drain()
            return
        spec = _simulate_spec(path)
        if spec is not None:
            if request.method != "POST":
                raise _method_not_allowed(request.method, path)
            params = self._parse_simulate(request.json_body(), request.query)
            stream = request.query.get("stream", "0").lower() in (
                "1", "true", "yes",
            )
            if stream:
                await self._serve_stream(spec, params, writer)
            else:
                await self._serve_oneshot(spec, params, writer)
            return
        spec = _render_spec(path)
        if spec is not None:
            if request.method != "POST":
                raise _method_not_allowed(request.method, path)
            await self._serve_render(spec, request.json_body(), writer)
            return
        self.not_found += 1
        writer.write(
            http.json_response(
                404,
                {"error": {"code": "no-such-route",
                           "message": f"no route for {path!r}"}},
            )
        )
        await writer.drain()

    def _parse_simulate(
        self, body: dict, query: Optional[dict] = None
    ) -> _SimulateParams:
        unknown = set(body) - _REQUEST_FIELDS
        if unknown:
            raise BadRequest(
                f"unknown request fields {sorted(unknown)}; "
                f"valid: {sorted(_REQUEST_FIELDS)}"
            )
        photons = _as_int(body.get("photons", 20_000), "photons")
        seed = _as_int(body.get("seed", 0x1234ABCD330E), "seed")
        sigma = _as_number(body.get("sigma", 3.0), "sigma", "a finite number")
        deadline = _as_number(
            body.get("deadline", self.config.default_deadline), "deadline",
            "a positive finite number",
        )
        batch = body.get("batch")
        batch = _as_int(batch, "batch") if batch is not None else None
        target = body.get("target_error")
        target = _as_number(target, "target_error") if target is not None else None
        # The query parameter wins over the body field, so a caller can
        # retarget a canned request body from the URL alone.
        if query is not None and "target_error" in query:
            try:
                target = float(query["target_error"])
            except ValueError as exc:
                raise BadRequest(f"bad query parameter target_error: {exc}") from None
        if not (deadline > 0 and math.isfinite(deadline)):
            raise BadRequest(
                f"deadline must be positive and finite, got {deadline}"
            )
        if batch is not None and batch < 1:
            raise BadRequest(f"batch must be positive, got {batch}")
        try:
            request = SimulateRequest(
                n_photons=photons,
                seed=seed,
                policy=SplitPolicy(threshold=sigma),
                target_rel_error=target,
            )
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return _SimulateParams(request=request, deadline=deadline, batch=batch)

    # -- the serving paths -------------------------------------------------

    async def _serve_oneshot(
        self, spec: str, params: _SimulateParams, writer
    ) -> None:
        checkout = await self._checkout(spec, params.deadline)

        def run(session: RenderSession) -> tuple[bytes, tuple]:
            result = session.simulate(params.request)
            # Early-stop serves surface the traced prefix out-of-band:
            # the body stays the pure canonical answer document (still
            # byte-comparable with a CLI answer file for the traced
            # count), the stop is reported in response headers.
            headers: tuple = ()
            if result.early_stopped:
                headers = (
                    ("X-Repro-Photons-Traced", str(result.config.n_photons)),
                )
                achieved = result.achieved_rel_error
                if achieved is not None and math.isfinite(achieved):
                    headers += (("X-Repro-Achieved-Error", f"{achieved:.6g}"),)
            return canonical_answer_bytes(result), headers

        body, headers = await self._run_checked_out(
            checkout, run,
            f"request exceeded its {params.deadline:.3f}s deadline "
            f"({params.request.n_photons} photons on {spec!r})",
        )
        writer.write(http.response_bytes(200, body, extra_headers=headers))
        await writer.drain()
        self.served_oneshot += 1

    def _parse_render(self, body: dict) -> tuple[_SimulateParams, dict]:
        """Split a render body into simulate params + camera overrides."""
        unknown = set(body) - _RENDER_FIELDS
        if unknown:
            raise BadRequest(
                f"unknown render fields {sorted(unknown)}; "
                f"valid: {sorted(_RENDER_FIELDS)}"
            )
        sim_body = {k: v for k, v in body.items() if k in _REQUEST_FIELDS}
        # Render defaults favour interactivity: a viewing request should
        # not implicitly trace the full 20k-photon simulate default.
        sim_body.setdefault("photons", 2_000)
        params = self._parse_simulate(sim_body)
        if params.request.n_photons < 1:
            # An empty forest has no radiance to view; refuse it here,
            # before any session is acquired.
            raise BadRequest(
                f"render needs at least 1 photon, got {params.request.n_photons}"
            )
        camera: dict = {}
        for point in ("eye", "look_at"):
            value = body.get(point)
            if value is None:
                continue
            if not (isinstance(value, list) and len(value) == 3):
                raise BadRequest(
                    f"field {point!r} must be an array of three numbers, "
                    f"got {_shown(value)}"
                )
            camera[point] = tuple(_as_number(c, point) for c in value)
        if body.get("fov") is not None:
            camera["fov"] = _as_number(body["fov"], "fov")
        camera["width"] = _as_int(body.get("width", 160), "width")
        camera["height"] = _as_int(body.get("height", 120), "height")
        if not (1 <= camera["width"] <= 4096 and 1 <= camera["height"] <= 4096):
            raise BadRequest(
                f"width/height must be in [1, 4096], got "
                f"{camera['width']}x{camera['height']}"
            )
        if camera.get("fov") is not None and not (0 < camera["fov"] < 180):
            raise BadRequest(f"fov must be in (0, 180), got {camera['fov']}")
        return params, camera

    async def _serve_render(
        self, spec: str, body: dict, writer
    ) -> None:
        """POST /scenes/{spec}/render — simulate (or reuse) + render."""
        params, camera_spec = self._parse_render(body)
        checkout = await self._checkout(spec, params.deadline, camera_spec)

        def run(session: RenderSession) -> bytes:
            from ..image.ppm import ppm_bytes
            from ..image.tonemap import to_uint8

            image = session.render_view(params.request, checkout.camera)
            return ppm_bytes(to_uint8(image, key=0.4))

        ppm = await self._run_checked_out(
            checkout, run,
            f"render exceeded its {params.deadline:.3f}s deadline "
            f"({params.request.n_photons} photons on {spec!r})",
        )
        writer.write(
            http.response_bytes(
                200, ppm, content_type="image/x-portable-pixmap"
            )
        )
        await writer.drain()
        self.served_render += 1

    async def _serve_stream(
        self, spec: str, params: _SimulateParams, writer
    ) -> None:
        assert self._loop is not None and self._executor is not None
        checkout = await self._checkout(spec, params.deadline)
        session = checkout.session
        try:
            # repro: allow[async-blocking] — construction is eager
            # validation + guard binding only (microseconds, no trace);
            # every stream *step* runs on the executor via _stream_step.
            gen = session.simulate_stream(params.request, params.batch)
        except ValueError as exc:
            await checkout.pool.release(session)
            raise BadRequest(str(exc)) from None
        pending: Optional[concurrent.futures.Future] = None
        truncated = False
        sent = 0
        try:
            await http.start_chunked(writer)
            # The session's last yield is the answer, for the whole budget
            # or the prefix that met the target; every earlier one is a
            # progress line.
            while True:
                if self._loop.time() >= checkout.expires:
                    # Headers are long gone, so the deadline is reported
                    # in-band: a final error line, then a clean chunked
                    # terminator (loud, not dropped).
                    truncated = True
                    self.rejected_deadline += 1
                    await http.write_chunk(
                        writer,
                        _stream_error_line(
                            "deadline-exceeded",
                            f"stream truncated after {sent} chunks",
                        ),
                    )
                    break
                pending = self._executor.submit(_stream_step, gen)
                result = await asyncio.wrap_future(pending)
                pending = None
                if result is _STREAM_DONE:
                    break
                if result.forest.photons_emitted < result.config.n_photons:
                    line = _progress_line(result, params.request.n_photons)
                    await http.write_chunk(writer, line)
                    sent += 1
                    continue
                pending = self._executor.submit(canonical_answer_bytes, result)
                line = await asyncio.wrap_future(pending) + b"\n"
                pending = None
                await http.write_chunk(writer, line)
                break
            await http.end_chunked(writer)
            if not truncated:
                self.served_stream += 1
        except (ConnectionError, asyncio.CancelledError):
            self.cancelled_streams += 1
            raise
        except Exception as exc:
            # A mid-trace failure after the 200 head was sent: report it
            # in-band rather than corrupting the framing with a late 500.
            print(f"repro-serve: stream error: {exc!r}", file=sys.stderr)
            try:
                await http.write_chunk(
                    writer, _stream_error_line("internal-error", str(exc))
                )
                await http.end_chunked(writer)
            except ConnectionError:
                pass
        finally:
            # The disconnect/cancel path: wait out any in-flight step on
            # an executor thread (never the loop), close the generator —
            # which releases the session's reentrancy guard — and only
            # then hand the session back to the pool.
            cleanup = self._executor.submit(_close_stream, pending, gen)
            cleanup.add_done_callback(
                lambda _f: self._loop.call_soon_threadsafe(
                    self._spawn_release, checkout
                )
            )

    def _spawn_release(self, checkout: _Checkout) -> None:
        """Schedule an async pool release from a done-callback."""
        assert self._loop is not None
        task = self._loop.create_task(
            checkout.pool.release(checkout.session)
        )
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """The /stats payload (also handy programmatically in tests)."""
        assert self._registry is not None
        programs = self._registry.stats()
        scenes = self._registry.scene_stats()
        amortize_keys = (
            "exact_hits", "topups", "camera_only_hits", "photons_saved",
            "early_stops",
        )
        return {
            "status": "ok",
            "programs": programs,
            "scenes": scenes,
            "amortize": {
                key: sum(s["amortize"][key] for s in scenes.values())
                for key in amortize_keys
            },
            "kernel_gate": KERNEL_GATE.snapshot(),
            "requests": {
                "served_oneshot": self.served_oneshot,
                "served_stream": self.served_stream,
                "served_render": self.served_render,
                "rejected_queue_full": sum(
                    s["pool"]["rejected_queue_full"] for s in scenes.values()
                ),
                "rejected_deadline": self.rejected_deadline,
                "cancelled_streams": self.cancelled_streams,
                "bad_requests": self.bad_requests,
                "not_found": self.not_found,
                "active_connections": len(self._handlers),
                "draining_pools": len(programs["draining"]),
            },
        }


# -- module helpers (executor-side; no loop state) -------------------------


def _simulate_spec(path: str) -> Optional[str]:
    """Extract the scene spec from ``/scenes/<spec>/simulate`` paths.

    The spec may itself contain slashes (``file:scenes/a.json``), so the
    route is matched by prefix and suffix, not by segment count.
    """
    prefix, suffix = "/scenes/", "/simulate"
    if not (path.startswith(prefix) and path.endswith(suffix)):
        return None
    spec = path[len(prefix):-len(suffix)]
    return spec or None


def _render_spec(path: str) -> Optional[str]:
    """Extract the scene spec from ``/scenes/<spec>/render`` paths."""
    prefix, suffix = "/scenes/", "/render"
    if not (path.startswith(prefix) and path.endswith(suffix)):
        return None
    spec = path[len(prefix):-len(suffix)]
    return spec or None


def simulate_path(spec: str, stream: bool = False) -> str:
    """The URL path serving *spec* (client-side convenience)."""
    return (
        f"/scenes/{quote(spec, safe=':@/')}" + "/simulate"
        + ("?stream=1" if stream else "")
    )


def _method_not_allowed(method: str, path: str) -> ServiceError:
    exc = ServiceError(f"{method} not allowed on {path}")
    exc.status = 405
    exc.code = "method-not-allowed"
    return exc


def _stream_step(gen: Iterator):
    """One blocking ``next`` on the stream generator (executor side)."""
    try:
        return next(gen)
    except StopIteration:
        return _STREAM_DONE


def _close_stream(
    pending: Optional[concurrent.futures.Future], gen
) -> None:
    """Executor-side stream cleanup: wait out the in-flight step, close.

    Closing a generator while another thread executes ``next`` on it
    raises ``ValueError``, so the in-flight step (if any) is awaited
    first; ``gen.close()`` then runs the generator's release path (the
    session's reentrancy guard clears here).
    """
    if pending is not None:
        concurrent.futures.wait([pending])
    try:
        gen.close()
    # repro: allow[hyg-broad-except] — last step of the disconnect
    # path: a throw out of the generator's release code must not mask
    # the cancellation being handled (the session guard already
    # cleared; anything left is unreachable state on a dead stream).
    except Exception:  # pragma: no cover — close must never mask cleanup
        pass


def _build_camera(defaults: dict, spec: dict):
    """The request's :class:`~repro.core.Camera` over the scene *defaults*.

    Raises:
        BadRequest: when the overrides make a camera
            :class:`~repro.core.Camera` rejects — non-finite
            coordinates, ``eye == look_at``, a view direction parallel
            to ``up``.
    """
    from ..core.viewing import Camera
    from ..geometry import Vec3

    eye = spec.get("eye")
    look = spec.get("look_at")
    fov = spec.get("fov")
    try:
        return Camera(
            position=Vec3(*eye) if eye else defaults["position"],
            look_at=Vec3(*look) if look else defaults["look_at"],
            vertical_fov_degrees=(
                fov if fov is not None
                else defaults.get("vertical_fov_degrees", 55.0)
            ),
            width=spec["width"],
            height=spec["height"],
        )
    except ValueError as exc:
        raise BadRequest(f"bad camera: {exc}") from None


def _stream_error_line(code: str, message: str) -> bytes:
    """An in-band NDJSON error line (the post-headers failure path)."""
    return json.dumps(
        {"error": {"code": code, "message": message}}
    ).encode("utf-8") + b"\n"


def _progress_line(result, n_photons: int) -> bytes:
    """A non-final NDJSON stream line (cumulative progress summary)."""
    forest = result.forest
    return json.dumps(
        {
            "progress": {
                "photons": forest.photons_emitted,
                "of": n_photons,
                "leaves": forest.leaf_count,
                "tallies": forest.total_tallies,
            }
        }
    ).encode("utf-8") + b"\n"
