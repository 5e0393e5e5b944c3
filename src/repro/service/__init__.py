"""The asyncio multi-tenant render service (the serving tier).

The paper's architecture is a long-lived simulation program answering
many viewing requests; :mod:`repro.api` built that shape in-process
(compile-once :class:`~repro.api.SceneProgram`, warm
:class:`~repro.api.RenderSession`), and this package puts *traffic* in
front of it — the Iray shape from PAPERS.md, a light-transport server
streaming progressively refining answers:

* :class:`ProgramRegistry` — many resident compiled scenes in one
  process, LRU-evicted under a program/byte budget, layered on each
  program's refcounted shared-memory plane (an evicted program's
  ``/dev/shm`` segment lives until its last session closes).
* :class:`SessionPool` — bounded, lazily grown pools of warm sessions
  per scene, with admission control: a bounded wait queue, explicit
  429-style rejection (:class:`ServiceOverloaded`), and per-request
  deadlines (:class:`DeadlineExceeded`).
* :class:`RenderService` — the stdlib-asyncio HTTP front end:
  ``POST /scenes/{spec}/simulate`` (one-shot, canonical answer bytes
  identical to the ``repro simulate`` answer file),
  ``POST .../simulate?stream=1`` (chunked NDJSON progress over
  ``simulate_stream``, final line = the same canonical answer),
  ``GET /healthz``, and ``GET /stats``.
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
from .registry import ProgramRegistry, ResidentProgram, program_nbytes
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
    "ResidentProgram",
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
