"""Workload calibration: measured per-scene cost statistics.

The discrete-event platform models do not re-trace every photon of a
64-rank run (Python would make that take hours); instead they consume a
:class:`SceneProfile` measured from a short *real* serial run — mean
tallies per photon, octree work per photon, tally concentration across
patches, and forest growth — and extrapolate deterministic batch
timings.  Everything observable about the parallel *algorithm*
(assignment quality, events forwarded, batch counts) still comes from
the real drivers; only wall-clock seconds are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.bintree import NODE_BYTES, BinForest, SplitPolicy
from ...core.simulator import TraceStats
from ...geometry.scene import Scene
from ...rng import Lcg48
from ..octree import scene_octree
from ..scalar import trace_photon

__all__ = ["SceneProfile", "profile_scene"]


@dataclass(frozen=True)
class SceneProfile:
    """Cost statistics of one scene, measured by calibration tracing.

    Attributes:
        name: Scene name.
        defining_polygons: Patch count (Table 5.1 column 1).
        events_per_photon: Mean tallies per emitted photon (1 emission +
            mean bounces).
        nodes_per_photon: Mean octree nodes visited per photon — the
            intersection-work proxy that makes big scenes slower per
            photon (the paper: "as the geometry size increases ... the
            absolute performance is reduced").
        tests_per_photon: Mean patch intersection tests per photon.
        concentration: Herfindahl index of the per-patch tally shares;
            1.0 means all tallies land on one patch (maximum lock
            contention / load imbalance), 1/N means perfectly spread.
        leaves_per_photon: Bin-forest leaf growth rate (drives the
            Fig. 5.4 memory curve and the cache model).
        calibration_photons: Sample size behind these numbers.
    """

    name: str
    defining_polygons: int
    events_per_photon: float
    nodes_per_photon: float
    tests_per_photon: float
    concentration: float
    leaves_per_photon: float
    calibration_photons: int

    def work_per_photon(self) -> float:
        """Abstract work units per photon (node visits + patch tests).

        A patch test is several times the cost of a node visit (plane
        solve + 2x2 parameter inversion vs. slab test).
        """
        return self.nodes_per_photon + 3.0 * self.tests_per_photon

    def tally_share(self, tally_work: float = 40.0) -> float:
        """Fraction of a photon's time spent updating the shared forest.

        DetermineBin + UpdateBinCount + the split test cost roughly
        *tally_work* node-visit equivalents per event.  Lock contention
        in the shared-memory variant can only occur during this fraction
        of the work, which is why large scenes (more intersection work
        per tally) scale better on the Power Onyx — the trend of
        Figures 5.6-5.8.
        """
        tally = self.events_per_photon * tally_work
        return tally / (self.work_per_photon() + tally)

    def forest_bytes_at(self, photons: int) -> float:
        """Estimated bin-forest size after *photons* photons.

        Growth is linear early and sub-linear later (Fig. 5.4); we model
        the envelope with a square-root taper beyond the calibration
        range, which matches the published curve's shape.
        """
        if photons <= self.calibration_photons:
            leaves = 1.0 + self.leaves_per_photon * photons
        else:
            base = 1.0 + self.leaves_per_photon * self.calibration_photons
            extra = photons - self.calibration_photons
            leaves = base + self.leaves_per_photon * (
                (extra * self.calibration_photons) ** 0.5
            )
        # ~2 nodes per leaf in a binary tree.
        return leaves * 2.0 * NODE_BYTES


def profile_scene(
    scene: Scene,
    photons: int = 400,
    seed: int = 2024,
) -> SceneProfile:
    """Measure a :class:`SceneProfile` by tracing *photons* real photons.

    The calibration photons go through the paper's per-photon loop, and
    the work counts are the pointer octree's traversal counters.
    """
    if photons < 10:
        raise ValueError("need at least 10 calibration photons")
    rng = Lcg48(seed)
    forest = BinForest(SplitPolicy())
    stats = TraceStats()
    octree_stats = scene_octree(scene).stats
    octree_stats.reset_traversal_counters()
    patch_tallies: dict[int, int] = {}
    for _ in range(photons):
        events, photon_stats = trace_photon(scene, rng)
        stats.merge(photon_stats)
        for ev in events:
            forest.tally(ev.patch_id, ev.coords, ev.band)
            patch_tallies[ev.patch_id] = patch_tallies.get(ev.patch_id, 0) + 1
        forest.photons_emitted += 1

    total = sum(patch_tallies.values())
    concentration = sum((c / total) ** 2 for c in patch_tallies.values())
    return SceneProfile(
        name=scene.name,
        defining_polygons=scene.defining_polygon_count,
        events_per_photon=total / photons,
        nodes_per_photon=octree_stats.nodes_visited / photons,
        tests_per_photon=octree_stats.intersection_tests / photons,
        concentration=concentration,
        leaves_per_photon=(forest.leaf_count - forest.tree_count) / photons
        + forest.tree_count / photons,
        calibration_photons=photons,
    )
