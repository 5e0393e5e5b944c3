"""The serial Photon simulation loop (Figure 4.1).

    for iphot = 1 to nphot do
        GeneratePhoton(&photon, &bin); UpdateBinCount(&bin)
        while not absorbed:
            DetermineIntersection(photon, &poly)
            DetermineBin(photon, &bin, poly)
            if Reflect(&photon, bin): UpdateBinCount(&bin); maybe Split(&bin)
            else: absorbed = TRUE

This module is the single-processor reference: :func:`run_scalar` is
the oracle the vector engine's answers are checked against, and the
parallel variants reuse its per-photon tracing step so correctness
tests can compare forests tally-for-tally.  Serving goes through
:class:`repro.api.RenderSession`, which traces with the vector engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional

from typing import TYPE_CHECKING

from ..geometry.scene import Scene
from ..rng import Lcg48
from .binning import BinCoords
from .bintree import BinForest, SplitPolicy
from .generation import emit_photon
from .photon import Photon
from .reflection import reflect

if TYPE_CHECKING:  # pragma: no cover — import cycle guard for typing only
    from .fluorescence import FluorescenceSpec

__all__ = [
    "SimulationConfig",
    "TraceStats",
    "TallyEvent",
    "trace_photon",
    "run_scalar",
    "run_scalar_batches",
    "SimulationResult",
]

#: Safety valve against (physically impossible) infinite specular loops;
#: at 0.95 mirror reflectance the probability of reaching 200 bounces is
#: ~3e-5 of one photon in 10^4, and the truncation is identical on every
#: rank because it is a pure function of the bounce counter.
MAX_BOUNCES = 200


#: Engines selectable through :attr:`SimulationConfig.engine`.
ENGINES = ("scalar", "vector")

#: RNG disciplines selectable through :attr:`SimulationConfig.rng_mode`.
RNG_MODES = ("auto", "stream", "substream")


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for a Photon simulation.

    Attributes:
        n_photons: Photons to emit.
        seed: Base RNG seed; parallel runs derive per-rank substreams.
        policy: Bin-splitting policy (3-sigma by default).
        fluorescence: Optional Stokes-shift conversion spec (the
            chapter-6 extension); when set, would-be absorptions may
            re-emit in a lower band.  ``None`` disables it.
        engine: ``"scalar"`` is the per-photon reference loop; ``"vector"``
            is the NumPy batch engine of :mod:`repro.core.vectorized`
            (bit-exact with the scalar engine under ``"substream"`` RNG).
        rng_mode: ``"stream"`` consumes one serial drand48 stream across
            all photons (the historical scalar behaviour); ``"substream"``
            gives photon *i* its own counter-based substream, which is
            what makes batched and sharded tracing order-independent.
            ``"auto"`` resolves to ``"stream"`` for the scalar engine and
            ``"substream"`` for the vector engine.
        batch_size: Photons per structure-of-arrays batch (vector engine).
        workers: Process count for the vector engine; > 1 shards batches
            across a multiprocessing pool
            (:mod:`repro.parallel.procpool`).
    """

    n_photons: int
    seed: int = 0x1234ABCD330E
    policy: SplitPolicy = field(default_factory=SplitPolicy)
    fluorescence: Optional["FluorescenceSpec"] = None
    engine: str = "scalar"
    rng_mode: str = "auto"
    batch_size: int = 4096
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_photons < 0:
            raise ValueError("n_photons must be non-negative")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick from {ENGINES}")
        if self.rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {self.rng_mode!r}; pick from {RNG_MODES}"
            )
        if self.engine == "vector" and self.rng_mode == "stream":
            raise ValueError(
                "the vector engine requires per-photon substreams; "
                "use rng_mode='substream' (or 'auto')"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.workers > 1 and self.engine != "vector":
            raise ValueError(
                "workers > 1 requires the vector engine (the scalar loop "
                "would silently ignore the pool); pass engine='vector'"
            )

    @property
    def resolved_rng_mode(self) -> str:
        """The effective RNG discipline after ``"auto"`` resolution."""
        if self.rng_mode != "auto":
            return self.rng_mode
        return "substream" if self.engine == "vector" else "stream"


@dataclass
class TraceStats:
    """Aggregate counters across photon traces."""

    photons: int = 0
    reflections: int = 0
    absorptions: int = 0
    escapes: int = 0  # photons that left the scene without hitting anything
    bounce_limit_hits: int = 0

    def merge(self, other: "TraceStats") -> None:
        """Accumulate another counter set into this one."""
        self.photons += other.photons
        self.reflections += other.reflections
        self.absorptions += other.absorptions
        self.escapes += other.escapes
        self.bounce_limit_hits += other.bounce_limit_hits

    @property
    def mean_bounces(self) -> float:
        return self.reflections / self.photons if self.photons else 0.0


@dataclass(frozen=True)
class TallyEvent:
    """One photon departure: the unit of work the parallel variants ship.

    In the distributed algorithm (Figure 5.3) events whose bin is owned by
    another rank are queued and sent in the all-to-all phase; the receiver
    replays them with :meth:`repro.core.bintree.BinForest.tally`.
    """

    patch_id: int
    coords: BinCoords
    band: int


def trace_photon(
    scene: Scene,
    rng: Lcg48,
    emit: Callable = emit_photon,
    fluorescence: Optional["FluorescenceSpec"] = None,
) -> tuple[list[TallyEvent], TraceStats]:
    """Trace a single photon, returning its tally events and counters.

    This is the pure tracing core shared by the serial, shared-memory and
    distributed drivers: it touches no forest, so each driver can apply
    the events under its own concurrency discipline.

    Args:
        fluorescence: When given, the reflection step gains the
            Stokes-shift second chance of
            :func:`repro.core.fluorescence.fluorescent_reflect`.
    """
    stats = TraceStats(photons=1)
    record = emit(scene, rng)
    events = [
        TallyEvent(
            record.patch_id,
            BinCoords(record.s, record.t, record.theta, record.r_squared),
            record.photon.band,
        )
    ]
    photon: Photon = record.photon

    from ..geometry.ray import Ray  # local import keeps module load cheap

    while True:
        if photon.bounces >= MAX_BOUNCES:
            stats.bounce_limit_hits += 1
            break
        hit = scene.intersect(Ray(photon.position, photon.direction, normalized=True))
        if hit is None:
            stats.escapes += 1
            break
        if fluorescence is not None:
            from .fluorescence import fluorescent_reflect

            result = fluorescent_reflect(photon, hit, rng, fluorescence)
        else:
            result = reflect(photon, hit, rng)
        if result is None:
            stats.absorptions += 1
            break
        stats.reflections += 1
        events.append(
            TallyEvent(
                hit.patch.patch_id,
                BinCoords(hit.s, hit.t, result.theta, result.r_squared),
                photon.band,
            )
        )
        photon.advance_to(hit.point, result.direction)
    return events, stats


@dataclass
class SimulationResult:
    """Output of a simulation run: the answer forest plus run counters.

    ``config.n_photons`` always equals the photons actually traced.
    Under a convergence target
    (:attr:`repro.api.SimulateRequest.target_rel_error`) that may be
    fewer than requested: the answer is then the exact canonical answer
    for the traced prefix, with :attr:`photons_requested` recording the
    original budget and :attr:`achieved_rel_error` the median per-bin
    relative error the run reached (set whenever a target was given,
    early-stopped or not).
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


def _scalar_photon_streams(config: SimulationConfig) -> Iterator[Lcg48]:
    """One RNG per photon under *config*'s discipline.

    The single home of the scalar RNG policy: ``"stream"`` yields the
    same serial generator every time (the historical behaviour);
    ``"substream"`` yields photon *i*'s private counter-based stream,
    matching the vector engine draw-for-draw.
    """
    if config.resolved_rng_mode == "substream":
        from .vectorized import photon_substream

        for i in range(config.n_photons):
            yield photon_substream(config.seed, i)
    else:
        rng = Lcg48(config.seed)
        for _ in range(config.n_photons):
            yield rng


def _scalar_trace_one(
    scene: Scene,
    config: SimulationConfig,
    forest: BinForest,
    stats: TraceStats,
    rng: Lcg48,
) -> None:
    """Trace one photon and tally its events — the reference tally body.

    The one loop body of :func:`run_scalar` and
    :func:`run_scalar_batches`, so the emission/band accounting cannot
    diverge between them.
    """
    events, photon_stats = trace_photon(
        scene, rng, fluorescence=config.fluorescence
    )
    stats.merge(photon_stats)
    for event in events:
        forest.tally(event.patch_id, event.coords, event.band)
    forest.photons_emitted += 1
    forest.band_emitted[events[0].band] += 1


def run_scalar(scene: Scene, config: SimulationConfig) -> SimulationResult:
    """Trace *config*'s whole budget with the per-photon reference loop.

    This is the Figure 4.1 oracle: under ``rng_mode="substream"`` its
    answer is byte-identical to the vector engine's, and under the
    default serial ``"stream"`` it reproduces the historical scalar
    answers (the golden suite pins both).

    Example:
        >>> from repro.scenes import cornell_box
        >>> result = run_scalar(cornell_box(), SimulationConfig(n_photons=1000))
        >>> result.forest.total_tallies > 1000  # emissions + reflections
        True

    Raises:
        ValueError: for an ``engine="vector"`` config; vector runs are
            served by :class:`repro.api.RenderSession`.
    """
    result = SimulationResult(
        BinForest(config.policy), TraceStats(), config, scene.name
    )
    for result in run_scalar_batches(scene, config, max(config.n_photons, 1)):
        pass
    return result


def run_scalar_batches(
    scene: Scene, config: SimulationConfig, batch_size: int
) -> Iterator[SimulationResult]:
    """Yield cumulative :func:`run_scalar` results every *batch_size* photons.

    Used by the memory-growth (Fig. 5.4) and speed-trace harnesses; the
    same forest object accumulates across yields, and the last yield is
    :func:`run_scalar`'s answer.  Arguments are checked at the call.

    Raises:
        ValueError: for ``batch_size < 1`` or an ``engine="vector"``
            config (stream those with
            :meth:`repro.api.RenderSession.simulate_stream`).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if config.engine == "vector":
        raise ValueError(
            "the scalar reference loop does not trace engine='vector' "
            "configs; serve them with repro.api.RenderSession"
        )
    return _scalar_batches(scene, config, batch_size)


def _scalar_batches(
    scene: Scene, config: SimulationConfig, batch_size: int
) -> Iterator[SimulationResult]:
    forest = BinForest(config.policy)
    stats = TraceStats()
    streams = _scalar_photon_streams(config)
    for _ in range(0, config.n_photons, batch_size):
        for rng in islice(streams, batch_size):
            _scalar_trace_one(scene, config, forest, stats, rng)
        yield SimulationResult(forest, stats, config, scene.name)
