"""The asyncio multi-tenant render service (the serving tier).

The paper's architecture is a long-lived simulation program answering
many viewing requests; :mod:`repro.api` built that shape in-process
(compile-once :class:`~repro.api.SceneProgram`, warm
:class:`~repro.api.RenderSession`), and this package puts *traffic* in
front of it — the Iray shape from PAPERS.md, a light-transport server
streaming progressively refining answers:

* :class:`ProgramRegistry` — the one owner of a scene's lifecycle:
  many resident scenes in one process, each a :class:`SessionPool`,
  LRU-evicted under a program/byte budget.  An evicted pool with a
  session still out drains under the registry until its last release
  (its ``/dev/shm`` plane lives exactly that long) and shows in
  ``/stats`` as ``requests.draining_pools``.
* :class:`SessionPool` — bounded, lazily grown pools of warm sessions
  per scene, with admission control: a bounded wait queue, explicit
  429-style rejection (:class:`ServiceOverloaded`), and per-request
  deadlines (:class:`DeadlineExceeded`).
* :class:`RenderService` — the stdlib-asyncio HTTP front end:
  ``POST /scenes/{spec}/simulate`` (one-shot, canonical answer bytes
  identical to the ``repro simulate`` answer file),
  ``POST .../simulate?stream=1`` (chunked NDJSON progress over
  ``simulate_stream``, final line = the same canonical answer),
  ``POST /scenes/{spec}/render`` (a PPM image), ``GET /healthz``, and
  ``GET /stats``.  Every route admits through one path (pool lookup,
  then a session, inside the request's deadline), so a deadline spent
  queueing is a 504 before any response byte, streams included.
* :class:`ServiceThread` — the service on a background thread for
  synchronous callers (tests, benchmarks, embedding).

Run it from the shell with ``python -m repro serve --scene ...``.
"""

from .errors import (
    BadRequest,
    DeadlineExceeded,
    PayloadTooLarge,
    SceneNotServed,
    ServiceError,
    ServiceOverloaded,
)
from .pool import SessionPool
from .registry import ProgramRegistry, program_nbytes
from .runner import ServiceThread, http_request
from .service import (
    RenderService,
    ServiceConfig,
    canonical_answer_bytes,
    simulate_path,
)

__all__ = [
    "BadRequest",
    "DeadlineExceeded",
    "PayloadTooLarge",
    "ProgramRegistry",
    "RenderService",
    "SceneNotServed",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceThread",
    "SessionPool",
    "canonical_answer_bytes",
    "http_request",
    "program_nbytes",
    "simulate_path",
]
