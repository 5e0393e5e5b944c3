"""The request/session parameter split of the public API.

The legacy :class:`~repro.core.simulator.SimulationConfig` mixed two
very different kinds of knob: *what to simulate* (photons, seed, split
policy, fluorescence, RNG discipline — different on every request) and
*how the serving process is provisioned* (engine, worker count, batch
size — fixed for the lifetime of a warm session).  The
paper's architecture is a long-lived simulation program answering many
requests, so the public API separates them:

* :class:`SimulateRequest` — frozen, hashable, per-call.  Two equal
  requests on the same session produce byte-identical answers; being
  hashable makes requests safe to log and deduplicate.
* :class:`SessionOptions` — frozen, hashable, per-session.  Changing
  any of these means provisioning different resources (another engine,
  another pool), which is exactly what a new
  :class:`~repro.api.RenderSession` does.

:func:`merge_config` recombines a (request, options) pair into the
legacy :class:`SimulationConfig` — the internal wire format carried by
:class:`~repro.core.simulator.SimulationResult` and validated by the
same rules as ever, so the split cannot drift from the one-shot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..core.bintree import SplitPolicy
from ..core.simulator import ENGINES, RNG_MODES, SimulationConfig

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..core.fluorescence import FluorescenceSpec

__all__ = [
    "SimulateRequest",
    "SessionOptions",
    "merge_config",
    "split_config",
]

@dataclass(frozen=True)
class SimulateRequest:
    """One simulation request: everything that may change per call.

    Frozen and hashable by design — a request is a value, safe to log,
    deduplicate, or use as a cache key.  Validation matches the legacy
    :class:`~repro.core.simulator.SimulationConfig` exactly (the pair is
    recombined through it by :func:`merge_config`).

    Attributes:
        n_photons: Photons to emit for this request.
        seed: Base RNG seed; photon *i* derives its private substream
            from it, so equal seeds give byte-identical answers on any
            engine/worker/batch configuration.
        policy: Bin-splitting policy (3-sigma by default).
        fluorescence: Optional Stokes-shift conversion spec; ``None``
            disables it.
        rng_mode: ``"stream"`` | ``"substream"`` | ``"auto"`` (resolved
            against the session's engine, exactly as the legacy config).
        target_rel_error: Optional convergence target.  When set, the
            session traces in batches and stops as soon as
            :func:`repro.core.convergence.forest_error_summary` reports
            a median per-bin relative error at or below the target —
            the answer is then the **exact** canonical answer for the
            photons actually traced (a prefix of the budget, never an
            approximation), with ``n_photons`` on the result's config
            recording the traced count and
            ``result.achieved_rel_error`` the error reached.
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    fluorescence: Optional["FluorescenceSpec"] = None
    rng_mode: str = "auto"
    target_rel_error: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {self.rng_mode!r}; pick from {RNG_MODES}"
            )
        if self.target_rel_error is not None and not (
            self.target_rel_error > 0
        ):
            raise ValueError(
                f"target_rel_error must be positive, got {self.target_rel_error}"
            )


@dataclass(frozen=True)
class SessionOptions:
    """How a :class:`~repro.api.RenderSession` is provisioned.

    Frozen and hashable: these knobs size the resources a session keeps
    warm between requests, so they cannot change mid-session.  Every
    combination produces byte-identical answers for equal requests —
    options trade speed and memory only (the determinism contract the
    parity and golden suites lock down).

    Attributes:
        engine: ``"vector"`` (the NumPy batch engine, the production
            default) or ``"scalar"`` (the per-photon reference loop).
        workers: Process count; > 1 keeps a persistent
            :class:`~repro.parallel.procpool.PhotonPool` warm across
            requests.
        batch_size: Photons per structure-of-arrays batch, and the
            default chunk size of
            :meth:`~repro.api.RenderSession.simulate_stream`.
        amortize: Enable the program-level
            :class:`~repro.api.amortize.ForestCache`: a request whose
            camera-free trace key (engine, RNG discipline, policy,
            fluorescence, seed) matches a cached run of at most its
            budget starts from the cached forest and traces only the
            missing photon range — byte-identical to a cold full-budget
            run, because per-photon substreams make photons independent
            of history.  A repeat that needs no new photons returns the
            cached forest itself (shared, read-only); a top-up copies
            it once before extending.  Only requests whose RNG resolves
            to ``"substream"`` amortize; the serial ``"stream"``
            discipline traces cold as ever, repeats included.
            Off by default (a plain session's repeat timings stay
            honest); the serving tier turns it on.
    """

    engine: str = "vector"
    workers: int = 1
    batch_size: int = 4096
    amortize: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick from {ENGINES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.workers > 1 and self.engine != "vector":
            raise ValueError(
                "workers > 1 requires the vector engine (the scalar loop "
                "would silently ignore the pool); pass engine='vector'"
            )
        if not isinstance(self.amortize, bool):
            raise ValueError(
                f"amortize must be a bool, got {self.amortize!r}"
            )


def merge_config(
    request: SimulateRequest, options: SessionOptions
) -> SimulationConfig:
    """Recombine a request/options pair into the legacy config.

    The result is what :class:`~repro.core.simulator.SimulationResult`
    carries as ``result.config`` — and constructing it runs the full
    legacy validation, so cross-field rules (vector forbids stream RNG,
    workers require the vector engine) hold identically on both API
    surfaces.
    """
    return SimulationConfig(
        n_photons=request.n_photons,
        seed=request.seed,
        policy=request.policy,
        fluorescence=request.fluorescence,
        rng_mode=request.rng_mode,
        engine=options.engine,
        workers=options.workers,
        batch_size=options.batch_size,
    )


def split_config(
    config: SimulationConfig,
) -> tuple[SimulateRequest, SessionOptions]:
    """Split a legacy config into its (request, options) halves.

    The migration helper behind the deprecation shims: the one-shot
    :class:`~repro.core.simulator.PhotonSimulator` builds a session from
    the options half and simulates the request half, reproducing the
    legacy behaviour byte-for-byte.
    """
    request = SimulateRequest(
        n_photons=config.n_photons,
        seed=config.seed,
        policy=config.policy,
        fluorescence=config.fluorescence,
        rng_mode=config.rng_mode,
    )
    options = SessionOptions(
        engine=config.engine,
        workers=config.workers,
        batch_size=config.batch_size,
    )
    return request, options
