"""The run record every engine shares: config, counters and result.

:class:`SimulationConfig` is what a traced answer was made from,
:class:`TraceStats` (defined beside the forest that carries it, in
:mod:`repro.core.bintree`) counts what the photons did, and
:class:`SimulationResult` carries the answer forest with both.  Serving
builds the config with :func:`repro.api.merge_config` and traces it
with the vector engine (:mod:`repro.core.vectorized`) on per-photon
substreams; the paper's per-photon reference loop (Figure 4.1) reads
the same records from the reproduction tier, :mod:`repro.paper.scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .bintree import BinForest, SplitPolicy, TraceStats
from .vectorized import MAX_PHOTONS

if TYPE_CHECKING:  # pragma: no cover — import cycle guard for typing only
    from .fluorescence import FluorescenceSpec

__all__ = [
    "MAX_BOUNCES",
    "SimulationConfig",
    "TraceStats",
    "SimulationResult",
]

#: Safety valve against (physically impossible) infinite specular loops;
#: at 0.95 mirror reflectance the probability of reaching 200 bounces is
#: ~3e-5 of one photon in 10^4, and the truncation is identical on every
#: rank because it is a pure function of the bounce counter.
MAX_BOUNCES = 200


def check_photons(n_photons: int) -> int:
    """*n_photons* itself, when it lies in ``[0, MAX_PHOTONS]``; else
    ``ValueError``.

    Photon *i* and photon ``i + MAX_PHOTONS`` share a substream
    (:data:`repro.core.vectorized.MAX_PHOTONS`), so a larger budget
    would silently repeat samples.
    """
    if n_photons < 0:
        raise ValueError("n_photons must be non-negative")
    if n_photons > MAX_PHOTONS:
        raise ValueError(
            f"n_photons must be at most {MAX_PHOTONS} (2**28), the "
            f"photons with distinct substreams, got {n_photons}"
        )
    return n_photons


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for a Photon simulation.

    Attributes:
        n_photons: Photons to emit, at most
            :data:`~repro.core.vectorized.MAX_PHOTONS` (``ValueError``
            past it, :func:`check_photons`).
        seed: Base RNG seed; parallel runs derive per-rank substreams.
        policy: Bin-splitting policy (3-sigma by default).
        fluorescence: Optional Stokes-shift conversion spec (the
            chapter-6 extension); when set, would-be absorptions may
            re-emit in a lower band.  ``None`` disables it.
        workers: Process count; > 1 shards each range across a
            multiprocessing pool (:mod:`repro.parallel.procpool`).

    The vector engine traces every config on per-photon substreams, so
    no field names an engine or an RNG discipline, and at a fixed width
    (:data:`repro.core.vectorized.PHOTONS_IN_FLIGHT`), so none sizes
    its wave.
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    fluorescence: Optional["FluorescenceSpec"] = None
    workers: int = 1

    def __post_init__(self) -> None:
        check_photons(self.n_photons)
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass
class SimulationResult:
    """Output of a simulation run: the answer forest plus run counters.

    ``config.n_photons`` equals the photons actually traced (only a
    non-final :meth:`~repro.api.RenderSession.simulate_stream` yield
    carries the whole budget instead).  Under a convergence target
    (:attr:`repro.api.SimulateRequest.target_rel_error`) that may be
    fewer than requested: the answer is then the exact canonical answer
    for the traced prefix, with :attr:`photons_requested` recording the
    original budget and :attr:`achieved_rel_error` the median per-bin
    relative error the run reached (set whenever a target was given,
    early-stopped or not).

    A session's result copies ``stats`` off its forest
    (:attr:`BinForest.trace_stats`), so the counts describe exactly the
    photons the forest holds, every stream yield's prefix included.  An
    engine's or pool's ``run`` counts only the photons that call added.
    """

    forest: BinForest
    stats: TraceStats
    config: SimulationConfig
    scene_name: str
    photons_requested: Optional[int] = None
    achieved_rel_error: Optional[float] = None

    @property
    def view_dependent_polygons(self) -> int:
        """Table 5.1's second column: total bins in the answer."""
        return self.forest.leaf_count

    @property
    def early_stopped(self) -> bool:
        """True when a convergence target ended the trace under budget."""
        return (
            self.photons_requested is not None
            and self.config.n_photons < self.photons_requested
        )
