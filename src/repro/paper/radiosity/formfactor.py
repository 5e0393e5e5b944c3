"""Geometrical form factors (equation 2.4).

"While determination of the pointwise form factors is straightforward,
the determination of the form factor between two arbitrary patches is
not ... The complexity of form factor determination is perhaps the
biggest motivation for Monte Carlo methods."  We implement the pointwise
kernel, a Monte Carlo patch-to-patch estimator with visibility (the
g(i,j) term), and the full matrix assembly with its row-sum property.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...geometry.polygon import Patch
from ...geometry.ray import Ray
from ...geometry.scene import Scene
from ...geometry.vec import dot, sub
from ...rng import Lcg48
from ..octree import intersect

__all__ = [
    "point_form_factor",
    "patch_form_factor",
    "form_factor_matrix",
]


def point_form_factor(x, nx, y, ny) -> float:
    """The pointwise kernel cos(theta) cos(theta') / (pi r^2).

    Args:
        x / y: Points on the two surfaces.
        nx / ny: Unit normals at those points.

    Returns 0 when either cosine is non-positive (surfaces facing away).
    """
    d = sub(y, x)
    r2 = d.length_squared()
    if r2 <= 1e-18:
        return 0.0
    r = math.sqrt(r2)
    cos_x = dot(nx, d) / r
    cos_y = -dot(ny, d) / r
    if cos_x <= 0.0 or cos_y <= 0.0:
        return 0.0
    return cos_x * cos_y / (math.pi * r2)


def patch_form_factor(
    patch_i: Patch,
    patch_j: Patch,
    scene: Optional[Scene] = None,
    samples: int = 16,
    rng: Optional[Lcg48] = None,
) -> float:
    """Monte Carlo estimate of F_ij (fraction of i's power reaching j).

    Args:
        scene: When given, occlusion g(i, j) is sampled with shadow rays
            through the octree; otherwise full visibility is assumed.
        samples: Point pairs to average.

    Uses the bounded point-to-disk estimator
    ``cos cos' A_j / (pi r^2 + A_j)`` rather than the raw kernel: for
    touching patches (a block resting on the floor) the raw 1/r^2
    kernel is unbounded and a single close sample pair can dwarf the
    whole estimate — this is one face of the paper's claim that "methods
    for estimating form factors are fraught with difficulties".
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng or Lcg48(7)
    area_j = patch_j.area
    total = 0.0
    for _ in range(samples):
        xi = patch_i.point_at(rng.uniform(), rng.uniform())
        yj = patch_j.point_at(rng.uniform(), rng.uniform())
        d = sub(yj, xi)
        r2 = d.length_squared()
        if r2 <= 1e-18:
            continue
        r = math.sqrt(r2)
        cos_x = dot(patch_i.normal, d) / r
        cos_y = -dot(patch_j.normal, d) / r
        if cos_x <= 0.0 or cos_y <= 0.0:
            continue
        k = cos_x * cos_y * area_j / (math.pi * r2 + area_j)
        if scene is not None:
            ray = Ray(xi, d / r, normalized=True)
            hit = intersect(scene, ray, r * (1.0 - 1e-9))
            # The sample pair is visible only if nothing sits strictly
            # between the two points (hitting patch_j itself earlier than
            # the sample point also counts as occlusion of *this pair*).
            if hit is not None:
                continue
        total += k
    return total / samples


def form_factor_matrix(
    scene: Scene,
    samples: int = 16,
    with_occlusion: bool = True,
    seed: int = 7,
) -> np.ndarray:
    """The dense N x N form-factor matrix of the scene's patches.

    Diagonals are zero (planar patches cannot see themselves); for a
    closed environment each row sums to ~1, which the tests verify with
    the tolerance Monte Carlo quadrature permits.
    """
    patches = scene.patches
    n = len(patches)
    rng = Lcg48(seed)
    occl = scene if with_occlusion else None
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out[i, j] = patch_form_factor(patches[i], patches[j], occl, samples, rng)
    return out
