"""Radiance queries against a bin forest.

The forest stores photon *counts*; this module converts them to radiance
estimates.  Under the Nusselt parameterisation each leaf's measure is

    area measure            = patch.area * d(s) * d(t)
    projected solid angle   = 0.5 * d(theta) * d(r^2)

and a band-b photon represents ``band_power[b] / band_emitted[b]`` watts,
so the leaf's radiance estimate is

    L_b = count_b * power_per_photon_b / (area measure * proj. solid angle)

which converges to the true radiance as bins shrink — the convergence
argument of chapter 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.scene import Scene
from ..geometry.vec import Vec3, dot, orthonormal_basis
from .binning import BinCoords, TWO_PI
from .bintree import BinForest
from .photon import NUM_BANDS

__all__ = ["RadianceField", "RadianceSample", "local_frame_coords"]


def local_frame_coords(direction: Vec3, patch) -> tuple[float, float]:
    """Map a world direction to the patch-frame ``(theta, r^2)`` pair.

    The frame is the patch's canonical tangent basis about its geometric
    normal.  Directions on the back side are folded onto the front
    hemisphere (|z|): in the closed test scenes genuine backface
    reflection is a numerical corner case, and folding keeps every
    direction binnable.
    """
    n = patch.normal
    t1, t2 = orthonormal_basis(n)
    lx = dot(direction, t1)
    ly = dot(direction, t2)
    theta = math.atan2(ly, lx)
    if theta < 0.0:
        theta += 2.0 * math.pi
    r_squared = lx * lx + ly * ly
    if r_squared >= 1.0:  # unit direction => r^2 <= 1, guard roundoff
        r_squared = 1.0 - 1e-15
    return theta, r_squared


@dataclass(frozen=True)
class RadianceSample:
    """A per-band radiance estimate with provenance.

    Attributes:
        rgb: Radiance per band (W / (m^2 * sr), scene units).
        counts: Raw photon tallies in the resolved leaf.
        leaf_total: All-band tally of the leaf.
        leaf_depth: Tree depth of the resolved leaf (diagnostics).
    """

    rgb: tuple[float, float, float]
    counts: tuple[int, int, int]
    leaf_total: int
    leaf_depth: int


class RadianceField:
    """The answer object: L(x, psi) reconstructed from a forest.

    Args:
        scene: Scene the forest was computed for (areas, powers).
        forest: A populated :class:`repro.core.bintree.BinForest`.
        ownership: For distributed answers (unit-keyed forests), the
            :class:`repro.paper.loadbalance.OwnershipMap` that maps a
            (patch, coordinates) query to the owning unit's tree.  Serial
            (patch-keyed) forests leave this ``None``.

    Raises:
        ValueError: if the forest has no emitted photons recorded (cannot
            normalise).
    """

    def __init__(self, scene: Scene, forest: BinForest, ownership=None) -> None:
        if forest.photons_emitted <= 0:
            raise ValueError("forest has no emitted photons; run a simulation first")
        self.scene = scene
        self.forest = forest
        self.ownership = ownership
        self._power_per_photon = tuple(
            (scene.band_powers[b] / forest.band_emitted[b])
            if forest.band_emitted[b] > 0
            else 0.0
            for b in range(NUM_BANDS)
        )

    def sample(
        self,
        patch_id: int,
        s: float,
        t: float,
        direction: Vec3,
    ) -> RadianceSample:
        """Radiance leaving patch *patch_id* at (s, t) toward *direction*.

        Directions are world-space; they are projected into the patch
        frame exactly as the simulator's DetermineBin did, so viewing and
        simulation resolve to the same leaves.
        """
        patch = self.scene.patch_by_id(patch_id)
        theta, r_squared = local_frame_coords(direction, patch)
        return self.sample_coords(patch_id, BinCoords(s, t, theta, r_squared))

    def sample_coords(self, patch_id: int, coords: BinCoords) -> RadianceSample:
        """Radiance at explicit 4-D bin coordinates."""
        patch = self.scene.patch_by_id(patch_id)
        if self.ownership is not None:
            key = self.ownership.unit_of(patch_id, coords)
        else:
            key = patch_id
        tree = self.forest.trees.get(key)
        if tree is None:
            return RadianceSample((0.0, 0.0, 0.0), (0, 0, 0), 0, 0)
        return self._leaf_sample(patch, tree.find_leaf(coords))

    def _leaf_sample(self, patch, leaf) -> RadianceSample:
        """The radiance estimate of one resolved *leaf* of *patch*."""
        area_measure = patch.area * leaf.parameter_area()
        proj_omega = leaf.projected_solid_angle()
        denom = area_measure * proj_omega
        if denom <= 0.0:
            return RadianceSample((0.0, 0.0, 0.0), tuple(leaf.counts), leaf.total, leaf.depth)
        rgb = tuple(
            leaf.counts[b] * self._power_per_photon[b] / denom
            for b in range(NUM_BANDS)
        )
        return RadianceSample(rgb, tuple(leaf.counts), leaf.total, leaf.depth)

    def sample_rows(self, patch_ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Radiance for many queries at once, as an ``[m, NUM_BANDS]`` array.

        Args:
            patch_ids: ``[m]`` patch ids.
            coords: ``[NUM_AXES, m]`` float64 — ``s, t, theta, r^2`` of
                each query, inside the :class:`BinCoords` ranges.

        Row *k* is ``sample_coords(patch_ids[k], BinCoords(*coords[:,
        k])).rgb`` to the bit: queries are stable-sorted by tree key,
        each tree routes its group to leaves in one
        :meth:`~repro.core.bintree.BinTree.leaf_groups` pass, and every
        reached leaf's estimate is computed once, by the scalar
        expression, then scattered to its rows.  A unit-keyed
        (``ownership=``) forest resolves each row's key through
        ``OwnershipMap.unit_of`` one row at a time first — that map is
        a pointer tree of the reproduction tier, not worth a second
        router.
        """
        m = patch_ids.size
        sorted_rgb = np.zeros((m, NUM_BANDS))
        if m == 0:
            return sorted_rgb
        if self.ownership is not None:
            keys = np.array([
                self.ownership.unit_of(pid, BinCoords(*point))
                for pid, point in zip(patch_ids.tolist(), coords.T.tolist())
            ])
        else:
            keys = patch_ids
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        patch_ids = patch_ids[order]
        coords = coords[:, order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        bounds = starts.tolist() + [m]
        for g, key in enumerate(keys[starts].tolist()):
            tree = self.forest.trees.get(key)
            if tree is None:
                continue
            a, b = bounds[g], bounds[g + 1]
            # A unit lies on one patch, so a key group shares its patch.
            patch = self.scene.patch_by_id(int(patch_ids[a]))
            group_rgb = sorted_rgb[a:b]
            for leaf, rows in tree.leaf_groups(coords[:, a:b]):
                group_rgb[rows] = self._leaf_sample(patch, leaf).rgb
        rgb = np.empty_like(sorted_rgb)
        rgb[order] = sorted_rgb
        return rgb

    # -- integral diagnostics ---------------------------------------------------

    def patch_exitance(self, patch_id: int) -> tuple[float, float, float]:
        """Total radiant exitance of a patch (W/m^2 per band).

        Computed by summing leaf counts directly (flux is count *
        power-per-photon over patch area), so it is exact regardless of
        bin shapes — used by energy-conservation tests.
        """
        patch = self.scene.patch_by_id(patch_id)
        if self.ownership is not None:
            counts = [0, 0, 0]
            for info in self.ownership.units:
                if info.patch_id != patch_id:
                    continue
                tree = self.forest.trees.get(info.unit_id)
                if tree is not None:
                    for b in range(NUM_BANDS):
                        counts[b] += tree.root.counts[b]
        else:
            tree = self.forest.trees.get(patch_id)
            if tree is None:
                return (0.0, 0.0, 0.0)
            counts = tree.root.counts
        return tuple(
            counts[b] * self._power_per_photon[b] / patch.area
            for b in range(NUM_BANDS)
        )

    def total_flux(self) -> float:
        """Scene-wide tallied flux in watts (all bands).

        Each tally is one photon departure; total flux must equal
        emitted power times (1 + mean bounces), which tests verify
        against :class:`repro.core.simulator.TraceStats`.
        """
        return sum(
            self.forest.band_tallies[b] * self._power_per_photon[b]
            for b in range(NUM_BANDS)
        )
