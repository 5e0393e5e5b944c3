"""The serial Photon simulation loop (Figure 4.1).

    for iphot = 1 to nphot do
        GeneratePhoton(&photon, &bin); UpdateBinCount(&bin)
        while not absorbed:
            DetermineIntersection(photon, &poly)
            DetermineBin(photon, &bin, poly)
            if Reflect(&photon, bin): UpdateBinCount(&bin); maybe Split(&bin)
            else: absorbed = TRUE

This module is the single-processor reference; both parallel variants
reuse its per-photon tracing step so correctness tests can compare
forests tally-for-tally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
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
    "PhotonSimulator",
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

    The single home of the scalar RNG policy, shared by the legacy
    driver and :class:`repro.api.RenderSession` so the two surfaces
    cannot drift: ``"stream"`` yields the same serial generator every
    time (the historical behaviour); ``"substream"`` yields photon
    *i*'s private counter-based stream, matching the vector engine
    draw-for-draw.
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

    Shared by every scalar driver (one-shot, batched, session) so the
    emission/band accounting cannot diverge between them.
    """
    events, photon_stats = trace_photon(
        scene, rng, fluorescence=config.fluorescence
    )
    stats.merge(photon_stats)
    for event in events:
        forest.tally(event.patch_id, event.coords, event.band)
    forest.photons_emitted += 1
    forest.band_emitted[events[0].band] += 1


class PhotonSimulator:
    """One-shot Photon driver — a deprecation shim over the session API.

    .. deprecated::
        ``PhotonSimulator(scene, config).run()`` re-provisions every
        resource per call (scene compile, plane publish, worker spawn).
        New code should open a persistent
        :class:`repro.api.RenderSession` and serve
        :class:`repro.api.SimulateRequest` objects on it; this shim
        builds exactly that session for a single request, so answers
        stay byte-identical while the warning nudges callers to the
        amortized path.

    Args:
        scene: The scene to illuminate.
        config: Photon count, seed and split policy.

    Example:
        >>> from repro.scenes import cornell_box
        >>> sim = PhotonSimulator(cornell_box(), SimulationConfig(n_photons=1000))
        >>> result = sim.run()
        >>> result.forest.total_tallies > 1000  # emissions + reflections
        True
    """

    def __init__(self, scene: Scene, config: SimulationConfig) -> None:
        warnings.warn(
            "PhotonSimulator is a one-shot shim; for repeated requests use "
            "repro.api.RenderSession (compile-once, warm workers)",
            DeprecationWarning,
            stacklevel=2,
        )
        self.scene = scene
        self.config = config

    def run(self) -> SimulationResult:
        """Run the full photon budget and return the answer forest.

        Routes through a single-request :class:`repro.api.RenderSession`
        (the scene program cache still amortizes compilation across
        shim calls on the same scene object); the answer bytes are
        identical to the pre-session implementation.
        """
        from ..api import RenderSession, split_config

        request, options = split_config(self.config)
        with RenderSession(self.scene, options) as session:
            return session.simulate(request)

    def _scalar_streams(self) -> Iterator[Lcg48]:
        """One RNG per photon (see :func:`_scalar_photon_streams`)."""
        return _scalar_photon_streams(self.config)

    def _trace_one(self, forest: BinForest, stats: TraceStats, rng: Lcg48) -> None:
        """Trace one photon and tally it (see :func:`_scalar_trace_one`)."""
        _scalar_trace_one(self.scene, self.config, forest, stats, rng)

    def run_batches(self, batch_size: int) -> Iterator[SimulationResult]:
        """Yield cumulative results after each batch of *batch_size* photons.

        Used by the memory-growth (Fig. 5.4) and speed-trace harnesses;
        the same forest object accumulates across yields.  Works under
        both single-process engines; multi-process streaming lives in
        :meth:`repro.api.RenderSession.simulate_stream`, so a config
        asking for workers here is an error rather than a silent
        single-process run.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        config = self.config
        if config.workers > 1:
            raise ValueError(
                "run_batches is single-process and would silently ignore "
                f"workers={config.workers}; use "
                "repro.api.RenderSession.simulate_stream for streamed "
                "multi-process runs"
            )
        forest = BinForest(config.policy)
        stats = TraceStats()
        if config.engine == "vector":
            from .vectorized import VectorEngine, tally_block

            engine = VectorEngine(
                self.scene,
                fluorescence=config.fluorescence,
                batch_size=batch_size,
            )
            done = 0
            while done < config.n_photons:
                todo = min(batch_size, config.n_photons - done)
                block, batch_stats = engine.trace_range(config.seed, done, todo)
                stats.merge(batch_stats)
                tally_block(forest, block, todo)
                done += todo
                yield SimulationResult(forest, stats, config, self.scene.name)
            return
        streams = self._scalar_streams()
        remaining = config.n_photons
        while remaining > 0:
            todo = min(batch_size, remaining)
            for _ in range(todo):
                self._trace_one(forest, stats, next(streams))
            remaining -= todo
            yield SimulationResult(forest, stats, config, self.scene.name)
