"""The stable public API: compile-once programs, persistent sessions.

This package is the supported surface for embedding the Photon engine —
the session-oriented shape the paper's architecture implies (a
long-lived simulation program answering many viewing requests) and the
one later layers (result-buffer planes, multi-scene serving, async
frontends) build on:

* :class:`SceneProgram` — a scene compiled once (patch SoA, flat
  octree) and shared process-wide, with a refcounted shared-memory
  plane the process's concurrent sessions publish exactly once.
* :class:`RenderSession` — a context manager owning the warm resources
  (engine, worker pool, plane reference) that serves repeated
  :meth:`~RenderSession.simulate`,
  :meth:`~RenderSession.simulate_stream`, and
  :meth:`~RenderSession.render` calls.
* :class:`SimulateRequest` / :class:`SessionOptions` — the frozen,
  hashable per-call and per-session parameters.

Quick start::

    from repro.api import RenderSession, SessionOptions, SimulateRequest

    with RenderSession("cornell-box", SessionOptions(workers=4)) as session:
        result = session.simulate(SimulateRequest(n_photons=100_000))
        image = session.render(result)                      # default view
        result2 = session.simulate(SimulateRequest(n_photons=100_000,
                                                   seed=7))  # warm: no setup

Every session traces with the vector engine on per-photon substreams.
The per-photon reference loop of Figure 4.1 is not a serving path: it
is the oracle :func:`repro.paper.scalar.run_scalar`, which the golden suite
holds to the same bytes.  See ``docs/ARCHITECTURE.md`` ("Public API &
session lifecycle").
"""

from ..core.simulator import SimulationResult
from ..core.viewing import Camera
from .program import SceneProgram
from .requests import SessionOptions, SimulateRequest, merge_config
from .session import RenderSession, open_session

__all__ = [
    "Camera",
    "RenderSession",
    "SceneProgram",
    "SessionOptions",
    "SimulateRequest",
    "SimulationResult",
    "merge_config",
    "open_session",
]
