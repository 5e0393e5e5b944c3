"""Polarization extension (chapter 6 future work).

"At this time polarization is being added, and we foresee the ability
to add fluorescence.  It is our belief that polarization will play a
large role in the realism of a rendered scene."  The dissertation
credits Sairam Sankaranarayanan with incorporating the He et al.
polarization terms; this module implements the Monte Carlo machinery
that work needs:

* a **Stokes vector** (I, Q, U, V) carried per photon, with the
  rotation and Mueller-matrix algebra used by polarization-aware
  transport;
* Mueller matrices for the two interactions Photon's surface model
  distinguishes — an ideal **specular** reflection (a linear
  polarizer-ish Fresnel reflection at the configured ratio) and a
  **depolarizing diffuse** bounce;
* a :func:`polarized_reflect` wrapper that advances the Stokes state
  alongside the existing geometric reflection.

The implementation follows the standard convention: Q is linear
polarization in the local s/p frame, U at 45 degrees, V circular; the
frame must be rotated into the plane of incidence before applying a
surface Mueller matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..geometry.polygon import Hit
from ..geometry.vec import Vec3, cross, dot, normalize
from ..rng import Lcg48
from .physics import Photon, ReflectionResult, reflect

__all__ = [
    "StokesVector",
    "MuellerMatrix",
    "rotation_mueller",
    "fresnel_reflection_mueller",
    "depolarizer_mueller",
    "PolarizedPhoton",
    "polarized_reflect",
]


@dataclass(frozen=True)
class StokesVector:
    """A Stokes 4-vector (I, Q, U, V) describing partial polarization.

    Attributes:
        i: Total intensity (non-negative).
        q: Linear polarization along the reference frame axes.
        u: Linear polarization at 45 degrees.
        v: Circular polarization.
    """

    i: float
    q: float = 0.0
    u: float = 0.0
    v: float = 0.0

    def __post_init__(self) -> None:
        if self.i < 0.0:
            raise ValueError(f"Stokes intensity must be non-negative, got {self.i}")
        if self.degree_of_polarization() > 1.0 + 1e-9:
            raise ValueError(
                "unphysical Stokes vector: sqrt(Q^2+U^2+V^2) exceeds I"
            )

    @classmethod
    def unpolarized(cls, intensity: float = 1.0) -> "StokesVector":
        return cls(intensity)

    @classmethod
    def linear(cls, intensity: float, angle: float) -> "StokesVector":
        """Fully linearly polarized light at *angle* to the frame axis."""
        return cls(
            intensity,
            intensity * math.cos(2.0 * angle),
            intensity * math.sin(2.0 * angle),
            0.0,
        )

    def degree_of_polarization(self) -> float:
        """sqrt(Q^2 + U^2 + V^2) / I, in [0, 1]; 0 for I == 0."""
        if self.i == 0.0:
            return 0.0
        return math.sqrt(self.q**2 + self.u**2 + self.v**2) / self.i

    def as_tuple(self) -> tuple[float, float, float, float]:
        """(I, Q, U, V) as a plain tuple."""
        return (self.i, self.q, self.u, self.v)


class MuellerMatrix:
    """A 4x4 Mueller matrix acting on Stokes vectors."""

    __slots__ = ("m",)

    def __init__(self, rows: tuple) -> None:
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Mueller matrix needs 4x4 entries")
        self.m = tuple(tuple(float(v) for v in r) for r in rows)

    def apply(self, s: StokesVector) -> StokesVector:
        """Transform a Stokes vector (with physicality clamping)."""
        vec = s.as_tuple()
        out = [sum(self.m[r][c] * vec[c] for c in range(4)) for r in range(4)]
        # Numerical guard: clamp tiny negative intensity / overshoot.
        i = max(out[0], 0.0)
        pol = math.sqrt(out[1] ** 2 + out[2] ** 2 + out[3] ** 2)
        if pol > i and pol > 0.0:
            scale = i / pol
            out[1] *= scale
            out[2] *= scale
            out[3] *= scale
        return StokesVector(i, out[1], out[2], out[3])

    def compose(self, other: "MuellerMatrix") -> "MuellerMatrix":
        """self o other (apply *other* first)."""
        rows = tuple(
            tuple(
                sum(self.m[r][k] * other.m[k][c] for k in range(4))
                for c in range(4)
            )
            for r in range(4)
        )
        return MuellerMatrix(rows)


def rotation_mueller(angle: float) -> MuellerMatrix:
    """Rotate the polarization reference frame by *angle* radians."""
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return MuellerMatrix(
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, c, s, 0.0),
            (0.0, -s, c, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        )
    )


def fresnel_reflection_mueller(rs: float, rp: float) -> MuellerMatrix:
    """Mueller matrix of a specular reflection with s/p reflectances.

    Args:
        rs / rp: Intensity reflectances for s- and p-polarized light,
            both in [0, 1].  Equal values give a neutral (polarization-
            preserving) mirror; unequal values polarize, the effect the
            paper expects to "play a large role in realism".
    """
    if not (0.0 <= rs <= 1.0 and 0.0 <= rp <= 1.0):
        raise ValueError("reflectances must be in [0, 1]")
    a = 0.5 * (rs + rp)
    b = 0.5 * (rs - rp)
    c = math.sqrt(rs * rp)
    return MuellerMatrix(
        (
            (a, b, 0.0, 0.0),
            (b, a, 0.0, 0.0),
            (0.0, 0.0, c, 0.0),
            (0.0, 0.0, 0.0, c),
        )
    )


def depolarizer_mueller(albedo: float = 1.0) -> MuellerMatrix:
    """An ideal depolarizer: diffuse scattering erases polarization."""
    if not 0.0 <= albedo <= 1.0:
        raise ValueError("albedo must be in [0, 1]")
    return MuellerMatrix(
        (
            (albedo, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
        )
    )


@dataclass
class PolarizedPhoton:
    """A photon plus its Stokes state and polarization reference frame.

    Attributes:
        photon: The underlying geometric particle.
        stokes: Current Stokes vector (normalised to I=1 at emission;
            Russian roulette already accounts for energy).
        frame_x: Unit vector perpendicular to the travel direction that
            anchors the Q axis.
    """

    photon: Photon
    stokes: StokesVector
    frame_x: Vec3

    @classmethod
    def from_photon(cls, photon: Photon) -> "PolarizedPhoton":
        from ..geometry.vec import orthonormal_basis

        t1, _ = orthonormal_basis(photon.direction)
        return cls(photon=photon, stokes=StokesVector.unpolarized(), frame_x=t1)


def _frame_rotation_angle(frame_x: Vec3, direction: Vec3, plane_normal: Vec3) -> float:
    """Angle rotating *frame_x* onto the s-axis of the incidence plane."""
    s_axis = cross(direction, plane_normal)
    n = s_axis.length()
    if n < 1e-12:
        return 0.0  # normal incidence: any frame is an s-frame
    s_axis = s_axis / n
    cos_a = max(-1.0, min(1.0, dot(frame_x, s_axis)))
    # Sign via the direction axis.
    sign = 1.0 if dot(cross(frame_x, s_axis), direction) >= 0.0 else -1.0
    return sign * math.acos(cos_a)


def polarized_reflect(
    pphoton: PolarizedPhoton,
    hit: Hit,
    rng: Lcg48,
    *,
    mirror_rs: float = 1.0,
    mirror_rp: float = 0.80,
) -> Optional[tuple[ReflectionResult, PolarizedPhoton]]:
    """Geometric reflection plus Stokes-state transport.

    Wraps :func:`repro.paper.physics.reflect`; on a specular bounce the
    Stokes vector is rotated into the plane of incidence and passed
    through a Fresnel Mueller matrix (default s/p ratio models a real
    mirror's partial polarization), on a diffuse bounce it depolarizes.

    Returns ``None`` on absorption, else the geometric result and the
    advanced polarized photon.
    """
    result = reflect(pphoton.photon, hit, rng)
    if result is None:
        return None

    normal = hit.shading_normal()
    if result.kind in ("mirror", "glossy"):
        angle = _frame_rotation_angle(
            pphoton.frame_x, pphoton.photon.direction, normal
        )
        mueller = fresnel_reflection_mueller(mirror_rs, mirror_rp).compose(
            rotation_mueller(angle)
        )
        stokes = mueller.apply(pphoton.stokes)
        # Renormalise: Russian roulette already charged the energy.
        if stokes.i > 0.0:
            scale = 1.0 / stokes.i
            stokes = StokesVector(
                1.0, stokes.q * scale, stokes.u * scale, stokes.v * scale
            )
        else:
            stokes = StokesVector.unpolarized()
        new_frame = cross(result.direction, normal)
        if new_frame.length() < 1e-12:
            from ..geometry.vec import orthonormal_basis

            new_frame, _ = orthonormal_basis(result.direction)
        else:
            new_frame = normalize(new_frame)
    else:
        stokes = StokesVector.unpolarized()
        from ..geometry.vec import orthonormal_basis

        new_frame, _ = orthonormal_basis(result.direction)

    advanced = PolarizedPhoton(
        photon=pphoton.photon, stokes=stokes, frame_x=new_frame
    )
    advanced.photon.advance_to(hit.point, result.direction)
    return result, advanced
