"""The request/session parameter split of the public API.

A serve has two very different kinds of knob: *what to simulate*
(photons, seed, split policy, fluorescence — different on every
request) and *how the serving process is provisioned* (worker count,
amortization — fixed for the lifetime of a warm session).
The paper's architecture is a long-lived simulation program answering
many requests, so the public API separates them:

* :class:`SimulateRequest` — frozen, hashable, per-call.  Two equal
  requests on the same session produce byte-identical answers; being
  hashable makes requests safe to log and deduplicate.
* :class:`SessionOptions` — frozen, hashable, per-session.  Changing
  any of these means provisioning different resources (another pool),
  which is exactly what a new :class:`~repro.api.RenderSession` does.

Every session traces with the vector engine on per-photon substreams,
so neither half names an engine or an RNG discipline.
:func:`merge_config` recombines a (request, options) pair into the
:class:`~repro.core.simulator.SimulationConfig` record that
:class:`~repro.core.simulator.SimulationResult` carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..core.bintree import SplitPolicy
from ..core.simulator import SimulationConfig, check_photons
from ..rng import MODULUS

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..core.fluorescence import FluorescenceSpec

__all__ = [
    "SimulateRequest",
    "SessionOptions",
    "merge_config",
]


def _require_int(value: object, name: str) -> None:
    """*name* must be an ``int``: ``True`` is one to Python and ``1.5``
    would serve seed 1's bytes, so both are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def check_seed(seed: int) -> int:
    """*seed* itself, when it lies in ``[0, 2**48)``; else ``ValueError``.

    The generators reduce a seed modulo 2**48, so ``-5`` and
    ``2**48 - 5`` would serve the same bytes under two trace keys.
    """
    if not 0 <= seed < MODULUS:
        raise ValueError(f"seed must lie in [0, 2**48), got {seed}")
    return seed


@dataclass(frozen=True)
class SimulateRequest:
    """One simulation request: everything that may change per call.

    Frozen and hashable by design — a request is a value, safe to log,
    deduplicate, or use as a cache key.

    Attributes:
        n_photons: Photons to emit for this request.
        seed: Base RNG seed; photon *i* derives its private substream
            from it, so equal seeds give byte-identical answers on any
            worker count.
        policy: Bin-splitting policy (3-sigma by default).
        fluorescence: Optional Stokes-shift conversion spec; ``None``
            disables it.
        target_rel_error: Optional convergence target.  When set, the
            session traces in steps of
            :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT` photons and
            stops as soon as
            :func:`repro.core.convergence.forest_error_summary` reports
            a median per-bin relative error at or below the target —
            the answer is then the **exact** canonical answer for the
            photons actually traced (a prefix of the budget, never an
            approximation), with ``n_photons`` on the result's config
            recording the traced count and
            ``result.achieved_rel_error`` the error reached.

    Raises:
        TypeError: when ``n_photons`` or ``seed`` is not an ``int``
            (bools included).
        ValueError: when ``seed`` lies outside ``[0, 2**48)``
            (:func:`check_seed`), ``n_photons`` outside
            ``[0, MAX_PHOTONS]`` (:func:`~repro.core.simulator.check_photons`),
            or ``target_rel_error`` is not a positive finite number.
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    fluorescence: Optional["FluorescenceSpec"] = None
    target_rel_error: Optional[float] = None

    def __post_init__(self) -> None:
        _require_int(self.n_photons, "n_photons")
        _require_int(self.seed, "seed")
        check_seed(self.seed)
        check_photons(self.n_photons)
        # not (x > 0) also rejects NaN; an infinite target is met by the
        # first batch, so it would stop every request at once.
        if self.target_rel_error is not None and not (
            self.target_rel_error > 0 and math.isfinite(self.target_rel_error)
        ):
            raise ValueError(
                "target_rel_error must be positive and finite, "
                f"got {self.target_rel_error}"
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
        workers: Process count; > 1 keeps a persistent
            :class:`~repro.parallel.procpool.PhotonPool` warm across
            requests.
        amortize: Enable the program-level
            :class:`~repro.api.amortize.ForestCache`: a request whose
            camera-free trace key (policy, fluorescence, seed) matches
            a cached run of at most its budget starts from the cached
            forest and traces only the missing photon range —
            byte-identical to a cold full-budget run, because
            per-photon substreams make photons independent of history.
            A repeat that needs no new photons returns the cached
            forest itself (shared, read-only); a top-up copies it once
            before extending.  Off by default (a plain session's repeat
            timings stay honest); the serving tier turns it on.

    Raises:
        TypeError: when ``workers`` is not an ``int`` (bools included).
    """

    workers: int = 1
    amortize: bool = False

    def __post_init__(self) -> None:
        _require_int(self.workers, "workers")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not isinstance(self.amortize, bool):
            raise ValueError(
                f"amortize must be a bool, got {self.amortize!r}"
            )


def merge_config(
    request: SimulateRequest, options: SessionOptions
) -> SimulationConfig:
    """The :class:`SimulationConfig` record of serving *request* under
    *options*: always the vector engine on per-photon substreams.

    It is what :class:`~repro.core.simulator.SimulationResult` carries
    as ``result.config``.
    """
    return SimulationConfig(
        n_photons=request.n_photons,
        seed=request.seed,
        policy=request.policy,
        fluorescence=request.fluorescence,
        workers=options.workers,
    )
