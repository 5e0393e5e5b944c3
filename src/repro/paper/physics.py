"""The scalar photon physics of Figure 4.1: emission, reflection, fluorescence.

:func:`repro.paper.scalar.run_scalar` and the paper's parallel drivers
trace one :class:`Photon` at a time with these routines; the serving
engine (:class:`repro.core.vectorized.VectorEngine`) reproduces each of
them column-wise, draw for draw, and the parity tests hold the two to
the same bytes.

**Emission** (Figure 4.2).  Two direction kernels are provided,
mirroring the dissertation's comparison:

* :func:`direction_formula` — the closed form used by Shirley and Sillion,
  ``(cos(2 pi e1) sqrt(e2), sin(2 pi e1) sqrt(e2), sqrt(1 - e2))``:
  34 floating-point operations under the Lawrence Livermore convention
  (sin/cos = 8 ops, sqrt = 4 ops, each random draw = 3 ops).

* :func:`direction_rejection` — the Photon/Gustafson kernel of Figure 4.3:
  draw planar coordinate pairs until one lands in the unit circle, then
  ``z = sqrt(1 - x^2 - y^2)``.  Expected cost is a geometric series
  totalling ~22 ops (13 / (pi/4) + 5), which the paper measures as about
  twice as fast in practice.

Both produce the *cosine-weighted* hemisphere distribution a Lambertian
(diffuse) emitter requires: uniform sampling of the unit disc followed by
projection onto the hemisphere is exactly Nusselt's analog.  Directional
("limited") lighting such as sunlight scales the unit circle by
``sin(theta_max)`` (Figure 4.4).

**Reflection** (the ``Reflect`` routine).  On each surface contact a
photon is probabilistically absorbed or re-emitted, with band-dependent
probabilities taken from the material.  This Russian-roulette scheme is
what lets the simulation terminate while conserving energy in
expectation.  The reflection lobes follow the decomposition of the He
et al. model the dissertation adopts: a Lambertian (uniform-disc)
diffuse component, an ideal specular delta for mirrors, and a
Phong-exponent directional-diffuse lobe for glossy surfaces — the
semi-diffuse case the paper stresses two-pass methods get wrong.

**Fluorescence** (chapter 6 future work).  :func:`fluorescent_reflect`
gives a photon that would be absorbed a second chance in a lower band,
re-emitted diffusely, as :class:`repro.core.fluorescence.FluorescenceSpec`
prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.fluorescence import FluorescenceSpec
from ..core.photon import BAND_NAMES, NUM_BANDS
from ..core.radiance import local_frame_coords
from ..geometry.polygon import Hit
from ..geometry.scene import Luminaire, Scene
from ..geometry.vec import Vec3, dot, orthonormal_basis, reflect_about
from ..rng import Lcg48

__all__ = [
    "Photon",
    "direction_rejection",
    "direction_formula",
    "direction_rejection_batch",
    "direction_formula_batch",
    "emit_photon",
    "EmissionRecord",
    "FLOPS_PER_RANDOM",
    "FLOPS_SIN",
    "FLOPS_COS",
    "FLOPS_SQRT",
    "expected_flops_rejection",
    "flops_formula",
    "ReflectionResult",
    "reflect",
    "fluorescent_reflect",
]

# Lawrence Livermore National Laboratory operation-count convention used in
# chapter 4: transcendental = 8, sqrt = 4, each random number = 3.
FLOPS_PER_RANDOM = 3
FLOPS_SIN = 8
FLOPS_COS = 8
FLOPS_SQRT = 4


#: Resample attempts for a glossy lobe that dips below the surface before
#: declaring the photon absorbed (energy loss is negligible and identical
#: on every rank since the stream is consumed deterministically).
_GLOSS_RETRIES = 8


class Photon:
    """A light particle in flight: a classical monochromatic energy packet.

    Attributes:
        position: Current origin of travel.
        direction: Unit direction of travel.
        band: Colour band index (0=red, 1=green, 2=blue).
        bounces: Number of reflections so far (0 for a fresh emission).
    """

    __slots__ = ("position", "direction", "band", "bounces")

    def __init__(
        self,
        position: Vec3,
        direction: Vec3,
        band: int,
        bounces: int = 0,
    ) -> None:
        if not 0 <= band < NUM_BANDS:
            raise ValueError(f"band must be in [0, {NUM_BANDS}), got {band}")
        self.position = position
        self.direction = direction
        self.band = band
        self.bounces = bounces

    def advance_to(self, point: Vec3, new_direction: Vec3) -> None:
        """Move to a reflection point and set the outgoing direction."""
        self.position = point
        self.direction = new_direction
        self.bounces += 1

    def __repr__(self) -> str:
        return (
            f"Photon(band={BAND_NAMES[self.band]}, bounces={self.bounces}, "
            f"position={self.position!r}, direction={self.direction!r})"
        )


def expected_flops_rejection() -> float:
    """Expected operation count of the Figure 4.3 kernel (~21.6, paper: 22).

    One loop iteration costs 2 draws (3 ops each), 2 scale-and-shifts
    (2 ops each... the paper lumps these into 13 total), i.e. 13 ops; the
    loop repeats with probability q = 1 - pi/4, giving the geometric series
    13 / (1 - q); the final ``z = sqrt(1 - tmp)`` adds 5.
    """
    q = 1.0 - math.pi / 4.0
    loop = 13.0 / (1.0 - q)
    return loop + FLOPS_SQRT + 1.0  # sqrt(1 - tmp): one subtract + sqrt


def flops_formula() -> int:
    """Operation count of the Shirley/Sillion closed form (34 ops).

    tmp1 = 2*pi*random()   -> 3 + 1
    tmp2 = random()        -> 3
    tmp3 = sqrt(tmp2)      -> 4
    x = cos(tmp1)*tmp3     -> 8 + 1
    y = sin(tmp1)*tmp3     -> 8 + 1
    z = sqrt(1 - tmp2)     -> 1 + 4
    """
    return (FLOPS_PER_RANDOM + 1) + FLOPS_PER_RANDOM + FLOPS_SQRT \
        + (FLOPS_COS + 1) + (FLOPS_SIN + 1) + (1 + FLOPS_SQRT)


def direction_rejection(rng: Lcg48, scale: float = 1.0) -> tuple[float, float, float]:
    """Cosine-weighted hemisphere direction by disc rejection (Figure 4.3).

    Args:
        rng: Random stream.
        scale: Unit-circle scaling for directional ("limited") emission;
            1.0 is fully diffuse, ``sin(theta_max)`` restricts emission to
            a cone of half-angle theta_max about the local +z axis.

    Returns:
        Local-frame (x, y, z) with z >= 0 along the surface normal.
    """
    while True:
        x = rng.uniform() * 2.0 - 1.0
        y = rng.uniform() * 2.0 - 1.0
        tmp = x * x + y * y
        if tmp <= 1.0:
            break
    if scale != 1.0:
        x *= scale
        y *= scale
        tmp = x * x + y * y
    z = math.sqrt(1.0 - tmp)
    return (x, y, z)


def direction_formula(rng: Lcg48) -> tuple[float, float, float]:
    """Cosine-weighted hemisphere direction via the Shirley/Sillion formula."""
    e1 = rng.uniform()
    e2 = rng.uniform()
    tmp1 = 2.0 * math.pi * e1
    tmp3 = math.sqrt(e2)
    return (math.cos(tmp1) * tmp3, math.sin(tmp1) * tmp3, math.sqrt(1.0 - e2))


def direction_rejection_batch(n: int, seed: int = 12345) -> np.ndarray:
    """Vectorised rejection kernel: (n, 3) array of local directions.

    Uses NumPy batch generation with the same acceptance logic; this is
    the form benchmarked against :func:`direction_formula_batch` in the
    chapter-4 kernel bench (per the HPC guide: vectorise the hot loop).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out = np.empty((n, 3), dtype=np.float64)
    # repro: allow[det-random] — explicitly seeded, self-contained
    # kernel-bench comparison; nothing here feeds a simulation answer
    # (the tracing path draws from the Lcg48 substreams).
    rng = np.random.default_rng(seed)
    filled = 0
    while filled < n:
        need = n - filled
        # Draw ~ need / (pi/4) candidates so one round usually suffices.
        batch = max(int(need / 0.7853) + 16, 16)
        xy = rng.random((batch, 2)) * 2.0 - 1.0
        rsq = xy[:, 0] ** 2 + xy[:, 1] ** 2
        ok = xy[rsq <= 1.0]
        take = min(len(ok), need)
        out[filled : filled + take, 0:2] = ok[:take]
        out[filled : filled + take, 2] = np.sqrt(
            1.0 - ok[:take, 0] ** 2 - ok[:take, 1] ** 2
        )
        filled += take
    return out


def direction_formula_batch(n: int, seed: int = 12345) -> np.ndarray:
    """Vectorised Shirley/Sillion formula: (n, 3) array of local directions."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # repro: allow[det-random] — seeded bench kernel, as above.
    rng = np.random.default_rng(seed)
    e1 = rng.random(n)
    e2 = rng.random(n)
    tmp1 = 2.0 * np.pi * e1
    tmp3 = np.sqrt(e2)
    out = np.empty((n, 3), dtype=np.float64)
    out[:, 0] = np.cos(tmp1) * tmp3
    out[:, 1] = np.sin(tmp1) * tmp3
    out[:, 2] = np.sqrt(1.0 - e2)
    return out


@dataclass(frozen=True)
class EmissionRecord:
    """A freshly generated photon plus its emission-bin coordinates.

    Figure 4.1 tallies the *emission* into the luminaire's own bin tree
    (``GeneratePhoton(&photon, &bin); UpdateBinCount(&bin)``), so emitted
    light is part of the stored radiance function like any reflection.
    """

    photon: Photon
    patch_id: int
    s: float
    t: float
    theta: float
    r_squared: float


def emit_photon(scene: Scene, rng: Lcg48) -> EmissionRecord:
    """Generate one photon from the scene's luminaires (Figure 4.2).

    Selection is power-proportional across luminaires; the emission point
    is uniform on the patch; the band is drawn from the emitter's
    spectrum; the direction is cosine-weighted about the patch normal
    (scaled for collimated sources).

    Random-draw order is fixed (luminaire, s, t, band, direction) so that
    parallel leapfrog streams replay deterministically.
    """
    lum: Luminaire = scene.pick_luminaire(rng.uniform())
    patch = lum.patch

    s = rng.uniform()
    t = rng.uniform()
    origin = patch.point_at(s, t)

    emission = patch.material.emission
    total = emission.r + emission.g + emission.b
    pick = rng.uniform() * total
    if pick < emission.r:
        band = 0
    elif pick < emission.r + emission.g:
        band = 1
    else:
        band = 2

    scale = 1.0
    if lum.beam_half_angle is not None:
        scale = math.sin(lum.beam_half_angle)
    lx, ly, lz = direction_rejection(rng, scale=scale)

    normal = patch.normal
    t1, t2 = orthonormal_basis(normal)
    direction = Vec3(
        lx * t1.x + ly * t2.x + lz * normal.x,
        lx * t1.y + ly * t2.y + lz * normal.y,
        lx * t1.z + ly * t2.z + lz * normal.z,
    )

    theta = math.atan2(ly, lx)
    if theta < 0.0:
        theta += 2.0 * math.pi
    r_squared = lx * lx + ly * ly

    return EmissionRecord(
        photon=Photon(origin, direction, band),
        patch_id=patch.patch_id,
        s=s,
        t=t,
        theta=theta,
        r_squared=min(r_squared, 1.0 - 1e-15),
    )


@dataclass(frozen=True)
class ReflectionResult:
    """Outcome of a successful (non-absorbing) reflection.

    Attributes:
        direction: Outgoing world-space unit direction.
        theta: Azimuth of the outgoing direction in the *patch* frame,
            in [0, 2 pi).
        r_squared: Squared projected radial distance in the patch frame,
            in [0, 1) — the angular coordinate pair the 4-D histogram
            subdivides (Figure 4.5).
        kind: 'diffuse', 'mirror', 'glossy' or 'fluorescent' (diagnostics
            only).
    """

    direction: Vec3
    theta: float
    r_squared: float
    kind: str


def _phong_lobe(rng: Lcg48, axis: Vec3, exponent: float) -> Optional[Vec3]:
    """Sample a direction with density proportional to cos^n about *axis*."""
    # z = u^(1/(n+1)) gives the power-cosine marginal; phi is uniform.
    u1 = rng.uniform()
    u2 = rng.uniform()
    cos_a = u1 ** (1.0 / (exponent + 1.0))
    sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    phi = 2.0 * math.pi * u2
    t1, t2 = orthonormal_basis(axis)
    return Vec3(
        sin_a * math.cos(phi) * t1.x + sin_a * math.sin(phi) * t2.x + cos_a * axis.x,
        sin_a * math.cos(phi) * t1.y + sin_a * math.sin(phi) * t2.y + cos_a * axis.y,
        sin_a * math.cos(phi) * t1.z + sin_a * math.sin(phi) * t2.z + cos_a * axis.z,
    )


def reflect(photon: Photon, hit: Hit, rng: Lcg48) -> Optional[ReflectionResult]:
    """Decide absorption vs. reflection and sample the outgoing lobe.

    Returns ``None`` when the photon is absorbed (Figure 4.1's FALSE
    branch); otherwise the outgoing direction plus its angular bin
    coordinates.

    The random stream is consumed in a fixed order (roulette draw, then
    lobe draws) so serial and parallel replays agree draw-for-draw.
    """
    material = hit.patch.material
    band = photon.band
    p_diffuse = material.diffuse.band(band)
    p_specular = material.specular

    u = rng.uniform()
    normal = hit.shading_normal()

    if u < p_diffuse:
        lx, ly, lz = direction_rejection(rng)
        t1, t2 = orthonormal_basis(normal)
        direction = Vec3(
            lx * t1.x + ly * t2.x + lz * normal.x,
            lx * t1.y + ly * t2.y + lz * normal.y,
            lx * t1.z + ly * t2.z + lz * normal.z,
        )
        theta, r_squared = local_frame_coords(direction, hit.patch)
        return ReflectionResult(direction, theta, r_squared, "diffuse")

    if u < p_diffuse + p_specular:
        mirror_dir = reflect_about(photon.direction, normal)
        if material.gloss is None:
            theta, r_squared = local_frame_coords(mirror_dir, hit.patch)
            return ReflectionResult(mirror_dir, theta, r_squared, "mirror")
        # Glossy: Phong lobe about the mirror direction, rejecting samples
        # that dive below the surface.
        for _ in range(_GLOSS_RETRIES):
            candidate = _phong_lobe(rng, mirror_dir, material.gloss)
            if candidate is not None and dot(candidate, normal) > 1e-12:
                theta, r_squared = local_frame_coords(candidate, hit.patch)
                return ReflectionResult(candidate, theta, r_squared, "glossy")
        return None  # lobe fully below horizon: treat as absorbed

    return None  # absorbed


def fluorescent_reflect(
    photon: Photon,
    hit: Hit,
    rng: Lcg48,
    spec: FluorescenceSpec,
) -> Optional[ReflectionResult]:
    """Reflection step with a fluorescence second chance.

    Ordinary reflection is attempted first (identical stream consumption
    to :func:`reflect`); if the photon is
    absorbed, the conversion row for its band may re-emit it diffusely
    in a lower band — in which case ``photon.band`` is *changed in
    place* (the tally that follows must use the new band, which is how
    a fluorescent surface glows in a band its illumination lacked).
    """
    result = reflect(photon, hit, rng)
    if result is not None:
        return result

    row = spec.conversion[photon.band]
    total = sum(row)
    if total <= 0.0:
        return None
    u = rng.uniform()
    acc = 0.0
    target: Optional[int] = None
    for dst in range(NUM_BANDS):
        acc += row[dst]
        if u < acc:
            target = dst
            break
    if target is None:
        return None  # stayed absorbed

    # Re-emit diffusely in the new band.
    photon.band = target
    normal = hit.shading_normal()
    lx, ly, lz = direction_rejection(rng)
    t1, t2 = orthonormal_basis(normal)
    direction = Vec3(
        lx * t1.x + ly * t2.x + lz * normal.x,
        lx * t1.y + ly * t2.y + lz * normal.y,
        lx * t1.z + ly * t2.z + lz * normal.z,
    )
    theta, r_squared = local_frame_coords(direction, hit.patch)
    return ReflectionResult(direction, theta, r_squared, "fluorescent")
