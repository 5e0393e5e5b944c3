"""The viewing stage: a single-step ray trace over the answer (Figure 4.9).

"Once the simulation is finished, all that remains is to determine what
is displayed. ... This can be reduced to a single-step ray trace."  Rays
go from the eye to the first visible surface only; the displayed colour
is the stored radiance of the bin a photon travelling from the surface
to the eye would have been tallied in.  Because the whole radiance
function is stored, *any* viewpoint renders from the same answer file
with no recomputation (Figure 4.10).

The stage is batched: :func:`render_rows` builds a band of eye rays as
structure-of-arrays columns, resolves every closest hit in one
:meth:`~repro.core.vectorized.VectorEngine.closest_hit` call (the same
compiled kernel, accelerator and tie rule the photons use) and looks
radiance up per (tree, leaf) group with
:meth:`~repro.core.radiance.RadianceField.sample_rows`.  The single-ray
API — :meth:`Camera.primary_ray`, :func:`repro.paper.octree.intersect`,
``RadianceField.sample`` — is the arithmetic it replicates expression
for expression, and the oracle ``tests/core/test_viewing_parity.py``
holds it to, byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..geometry.ray import Ray
from ..geometry.scene import Scene
from ..geometry.vec import Vec3, cross, dot, normalize, sub
from .radiance import RadianceField
from .vectorized import VectorEngine

__all__ = ["Camera", "CameraFrame", "render", "render_rows"]

#: How far from unit length / mutually perpendicular a usable view basis
#: may be.  Rounding alone leaves ~1e-16; a view direction within ~1e-7
#: rad of ``up`` is where the cross product stops resolving a ``right``.
_BASIS_TOLERANCE = 1e-9


class CameraFrame(NamedTuple):
    """What every primary ray of one camera shares.

    ``right, up, forward`` is the right-handed unit view basis;
    ``half_w, half_h`` the image-plane half extents at unit distance.
    """

    right: Vec3
    up: Vec3
    forward: Vec3
    half_w: float
    half_h: float


@dataclass(frozen=True)
class Camera:
    """A pinhole camera.

    Attributes:
        position: Eye point.
        look_at: Point the optical axis passes through.
        up: Approximate up vector (re-orthogonalised internally).
        vertical_fov_degrees: Full vertical field of view.
        width / height: Image resolution in pixels.

    Raises:
        ValueError: for a resolution below 1x1, a field of view outside
            (0, 180), a non-finite ``position`` / ``look_at`` / ``up``,
            or a view basis that is not finite and orthonormal — a
            zero-length view direction (``position == look_at``), one
            parallel to ``up``, or a difference that overflows.  A
            camera that constructs renders.
    """

    position: Vec3
    look_at: Vec3
    up: Vec3 = Vec3(0.0, 1.0, 0.0)
    vertical_fov_degrees: float = 55.0
    width: int = 160
    height: int = 120

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution must be at least 1x1")
        if not 0.0 < self.vertical_fov_degrees < 180.0:
            raise ValueError("vertical fov must be in (0, 180) degrees")
        for name in ("position", "look_at", "up"):
            if not all(math.isfinite(c) for c in getattr(self, name)):
                raise ValueError(f"camera {name} must be finite")
        try:
            right, up, forward = self.basis()
        except ZeroDivisionError:
            raise ValueError(
                "degenerate camera: the view direction has zero length "
                "or is parallel to up"
            ) from None
        # NaN fails every comparison, so a non-finite basis lands here too.
        if not all(
            abs(dot(a, a) - 1.0) <= _BASIS_TOLERANCE
            and abs(dot(a, b)) <= _BASIS_TOLERANCE
            for a, b in ((right, up), (up, forward), (forward, right))
        ):
            raise ValueError(
                "degenerate camera: position, look_at and up do not span "
                "a finite orthonormal view basis"
            )

    @functools.cached_property
    def frame(self) -> CameraFrame:
        """The view basis and image-plane extents, computed once.

        :meth:`primary_ray` and the batched ray generator both read this
        frame, so the single-ray API and the batch cannot drift.
        """
        forward = normalize(sub(self.look_at, self.position))
        right = normalize(cross(forward, self.up))
        true_up = cross(right, forward)
        half_h = math.tan(math.radians(self.vertical_fov_degrees) / 2.0)
        half_w = half_h * self.width / self.height
        return CameraFrame(right, true_up, forward, half_w, half_h)

    def basis(self) -> tuple[Vec3, Vec3, Vec3]:
        """Right-handed (right, up, forward) unit basis."""
        return self.frame[:3]

    def primary_ray(self, px: float, py: float) -> Ray:
        """Ray through pixel centre (px, py); (0, 0) is the top-left pixel."""
        right, up, forward, half_w, half_h = self.frame
        # NDC in [-1, 1], y flipped so row 0 is the top of the image.
        ndc_x = ((px + 0.5) / self.width) * 2.0 - 1.0
        ndc_y = 1.0 - ((py + 0.5) / self.height) * 2.0
        direction = Vec3(
            forward.x + ndc_x * half_w * right.x + ndc_y * half_h * up.x,
            forward.y + ndc_x * half_w * right.y + ndc_y * half_h * up.y,
            forward.z + ndc_x * half_w * right.z + ndc_y * half_h * up.z,
        )
        return Ray(self.position, direction)


def _eye_rays(camera: Camera, row_start: int, row_end: int):
    """Unit directions of rows [row_start, row_end), row-major, as columns.

    :meth:`Camera.primary_ray` followed by ``Vec3.normalized`` (what
    :class:`~repro.geometry.ray.Ray` applies), in their association
    order, over every pixel of the rows at once.
    """
    right, up, forward, half_w, half_h = camera.frame
    ndc_x = ((np.arange(camera.width) + 0.5) / camera.width) * 2.0 - 1.0
    ndc_y = 1.0 - ((np.arange(row_start, row_end) + 0.5) / camera.height) * 2.0
    across = ndc_x * half_w
    down = (ndc_y * half_h)[:, None]
    dx = ((forward.x + across * right.x) + down * up.x).ravel()
    dy = ((forward.y + across * right.y) + down * up.y).ravel()
    dz = ((forward.z + across * right.z) + down * up.z).ravel()
    inv = 1.0 / np.sqrt((dx * dx + dy * dy) + dz * dz)
    return dx * inv, dy * inv, dz * inv


def _render_band(
    engine: VectorEngine,
    field: RadianceField,
    camera: Camera,
    row_start: int,
    row_end: int,
) -> np.ndarray:
    """Rows [row_start, row_end) as a ``(rows, width, 3)`` radiance array."""
    dx, dy, dz = _eye_rays(camera, row_start, row_end)
    eye = camera.position
    px = np.full(dx.size, eye.x)
    py = np.full(dx.size, eye.y)
    pz = np.full(dx.size, eye.z)
    patch, distance = engine.closest_hit(px, py, pz, dx, dy, dz)
    rgb = np.zeros((dx.size, 3))
    seen = np.flatnonzero(patch >= 0)
    patch = patch[seen]
    dx, dy, dz = dx[seen], dy[seen], dz[seen]
    _, _, _, s, t, _ = engine.hit_attributes(
        px[seen], py[seen], pz[seen], dx, dy, dz, patch, distance[seen]
    )
    # A photon seen by the eye would travel surface -> eye, i.e. along
    # the reversed ray direction from the hit point.
    theta, r_squared = engine.local_frame(-dx, -dy, -dz, patch)
    rgb[seen] = field.sample_rows(patch, np.array([s, t, theta, r_squared]))
    return rgb.reshape(row_end - row_start, camera.width, 3)


def render_rows(
    scene: Scene,
    field: RadianceField,
    camera: Camera,
    row_start: int,
    row_end: int,
    *,
    engine: Optional[VectorEngine] = None,
) -> np.ndarray:
    """Render rows [row_start, row_end) to a (rows, width, 3) radiance array.

    Exposed separately so the examples can chunk rendering (and so a
    trivially parallel viewer — the "parallelizes with little effort"
    property of eye rays — can split scanlines).  Any split of the rows
    gives the same pixels.

    The rows are rendered in bands of whole rows, as many as fit in
    ``engine.batch_size`` rays (at least one), so transient memory is
    that of one photon wave whatever the resolution.

    Args:
        engine: A warm :class:`~repro.core.vectorized.VectorEngine` over
            *scene*'s compiled arrays; a
            :class:`~repro.api.RenderSession` passes its own.  Left
            ``None``, the call compiles the scene's
            :class:`~repro.core.vectorized.SceneArrays` itself, once.
            Whichever accelerator the engine resolved to, the pixels
            are the same.
    """
    if not 0 <= row_start <= row_end <= camera.height:
        raise ValueError("invalid row range")
    if engine is None:
        engine = VectorEngine(scene)
    out = np.zeros((row_end - row_start, camera.width, 3), dtype=np.float64)
    band = max(1, engine.batch_size // camera.width)
    for start in range(row_start, row_end, band):
        end = min(start + band, row_end)
        out[start - row_start:end - row_start] = _render_band(
            engine, field, camera, start, end
        )
    return out


def render(
    scene: Scene,
    field: RadianceField,
    camera: Camera,
    *,
    engine: Optional[VectorEngine] = None,
) -> np.ndarray:
    """Render the full frame to a (height, width, 3) radiance array.

    No Gouraud smoothing is applied — the paper deliberately renders raw
    patches "to show the adaptive nature of Photon as well as to preserve
    integrity".  Tone mapping to displayable 8-bit lives in
    :mod:`repro.image.tonemap`.  *engine* as for :func:`render_rows`.
    """
    return render_rows(scene, field, camera, 0, camera.height, engine=engine)
