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
paper's parallel drivers reuse its per-photon tracing step
(:func:`trace_photon`) so correctness tests can compare forests
tally-for-tally.  Intersections walk the pointer octree of
:mod:`repro.paper.octree`.  Serving goes through
:class:`repro.api.RenderSession`, which traces with the vector engine on
per-photon substreams.

The oracle takes its RNG discipline as one argument (:data:`RNGS`):
``"stream"`` consumes one serial drand48 stream across all photons (the
historical scalar behaviour); ``"substream"`` gives photon *i* its own
counter-based substream, under which the answer is byte-identical to
the vector engine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from ..core.binning import BinCoords
from ..core.bintree import BinForest
from ..core.fluorescence import FluorescenceSpec
from ..core.simulator import MAX_BOUNCES, SimulationConfig, SimulationResult, TraceStats
from ..core.vectorized import photon_substream
from ..geometry.ray import Ray
from ..geometry.scene import Scene
from ..rng import Lcg48
from .octree import scene_octree
from .physics import Photon, emit_photon, fluorescent_reflect, reflect

__all__ = ["RNGS", "TallyEvent", "trace_photon", "run_scalar", "run_scalar_batches"]

#: RNG disciplines of the scalar oracle; the first is the default.
RNGS = ("stream", "substream")


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
    fluorescence: Optional[FluorescenceSpec] = None,
) -> tuple[list[TallyEvent], TraceStats]:
    """Trace a single photon, returning its tally events and counters.

    This is the pure tracing core shared by the serial, shared-memory and
    distributed drivers: it touches no forest, so each driver can apply
    the events under its own concurrency discipline.

    Args:
        fluorescence: When given, the reflection step gains the
            Stokes-shift second chance of
            :func:`repro.paper.physics.fluorescent_reflect`.
    """
    stats = TraceStats(photons=1)
    record = emit_photon(scene, rng)
    events = [
        TallyEvent(
            record.patch_id,
            BinCoords(record.s, record.t, record.theta, record.r_squared),
            record.photon.band,
        )
    ]
    photon: Photon = record.photon
    octree = scene_octree(scene)

    while True:
        if photon.bounces >= MAX_BOUNCES:
            stats.bounce_limit_hits += 1
            break
        hit = octree.intersect(Ray(photon.position, photon.direction, normalized=True))
        if hit is None:
            stats.escapes += 1
            break
        if fluorescence is not None:
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


def _scalar_photon_streams(config: SimulationConfig, rng: str) -> Iterator[Lcg48]:
    """One RNG per photon under discipline *rng*.

    The single home of the scalar RNG policy: ``"stream"`` yields the
    same serial generator every time (the historical behaviour);
    ``"substream"`` yields photon *i*'s private counter-based stream,
    matching the vector engine draw-for-draw.
    """
    if rng == "substream":
        for i in range(config.n_photons):
            yield photon_substream(config.seed, i)
    else:
        stream = Lcg48(config.seed)
        for _ in range(config.n_photons):
            yield stream


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


def run_scalar(
    scene: Scene, config: SimulationConfig, rng: str = "stream"
) -> SimulationResult:
    """Trace *config*'s whole budget with the per-photon reference loop.

    This is the Figure 4.1 oracle: under ``rng="substream"`` its answer
    is byte-identical to the vector engine's, and under the default
    serial ``"stream"`` it reproduces the historical scalar answers (the
    golden suite pins both).

    Example:
        >>> from repro.scenes import cornell_box
        >>> result = run_scalar(cornell_box(), SimulationConfig(n_photons=1000))
        >>> result.forest.total_tallies > 1000  # emissions + reflections
        True

    Raises:
        ValueError: for an *rng* outside :data:`RNGS`, or a config with
            ``workers > 1``; pool runs are served by
            :class:`repro.api.RenderSession`.
    """
    result = SimulationResult(
        BinForest(config.policy), TraceStats(), config, scene.name
    )
    for result in run_scalar_batches(scene, config, max(config.n_photons, 1), rng):
        pass
    return result


def run_scalar_batches(
    scene: Scene, config: SimulationConfig, batch_size: int, rng: str = "stream"
) -> Iterator[SimulationResult]:
    """Yield cumulative :func:`run_scalar` results every *batch_size* photons.

    Used by the memory-growth (Fig. 5.4) and speed-trace harnesses; the
    same forest object accumulates across yields, and the last yield is
    :func:`run_scalar`'s answer.  Arguments are checked at the call.

    Raises:
        ValueError: for ``batch_size < 1``, an *rng* outside
            :data:`RNGS`, or a ``workers > 1`` config (stream those
            with :meth:`repro.api.RenderSession.simulate_stream`).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if rng not in RNGS:
        raise ValueError(f"unknown rng {rng!r}; pick from {RNGS}")
    if config.workers > 1:
        raise ValueError(
            "the scalar reference loop traces on one core and would "
            "silently ignore workers > 1; serve pool runs with "
            "repro.api.RenderSession"
        )
    return _scalar_batches(scene, config, batch_size, rng)


def _scalar_batches(
    scene: Scene, config: SimulationConfig, batch_size: int, rng: str
) -> Iterator[SimulationResult]:
    forest = BinForest(config.policy)
    stats = TraceStats()
    streams = _scalar_photon_streams(config, rng)
    for _ in range(0, config.n_photons, batch_size):
        for stream in islice(streams, batch_size):
            _scalar_trace_one(scene, config, forest, stats, stream)
        yield SimulationResult(forest, stats, config, scene.name)
