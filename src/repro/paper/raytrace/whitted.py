"""Whitted-style recursive ray tracing — the chapter-2 baseline.

Implements equation (2.1): ambient + diffuse from visible point lights +
recursive specular.  Its deliberate *limitations* are the point of the
baseline: luminaires are treated as point sources (hence the
"unrealistically sharp shadows" the paper criticises in Figure 2.2),
there is no colour bleeding between diffuse surfaces, and the answer is
valid for a single viewpoint only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.viewing import Camera
from ...geometry.ray import Ray
from ...geometry.scene import Scene
from ...geometry.vec import Vec3, dot, reflect_about, sub
from ..octree import intersect, is_occluded

__all__ = ["WhittedConfig", "trace_ray", "render_whitted"]


@dataclass(frozen=True)
class WhittedConfig:
    """Shading constants of the Whitted model.

    Attributes:
        ambient: The ``I_a`` ambient intensity per band.
        max_depth: Specular recursion limit.
        light_samples: Always 1 — the model's point-light approximation
            is intentional; exposed so tests can document the sharp-shadow
            artefact by contrast with Photon's area lights.
    """

    ambient: tuple[float, float, float] = (0.05, 0.05, 0.05)
    max_depth: int = 4
    light_samples: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.light_samples != 1:
            raise ValueError(
                "the Whitted baseline models lights as points; "
                "area sampling is Photon's improvement, not this model's"
            )


def trace_ray(scene: Scene, ray: Ray, config: WhittedConfig, depth: int = 0) -> tuple[float, float, float]:
    """Radiance estimate along *ray* under the Whitted model."""
    hit = intersect(scene, ray)
    if hit is None:
        return (0.0, 0.0, 0.0)
    material = hit.patch.material
    if material.is_emitter:
        e = material.emission
        return (e.r, e.g, e.b)

    normal = hit.shading_normal()
    out = list(config.ambient)

    # Diffuse: one shadow ray to each luminaire's centre (point-light
    # approximation — the source of the hard shadows).
    for lum in scene.luminaires:
        light_point = lum.patch.point_at(0.5, 0.5)
        to_light = sub(light_point, hit.point)
        distance = to_light.length()
        if distance <= 1e-9:
            continue
        direction = to_light / distance
        ndotl = dot(normal, direction)
        if ndotl <= 0.0:
            continue
        if is_occluded(scene, Ray(hit.point, direction, normalized=True), distance):
            continue
        emission = lum.patch.material.emission
        # Inverse-square falloff of a point source.
        atten = ndotl / (distance * distance)
        out[0] += material.diffuse.r * emission.r * atten
        out[1] += material.diffuse.g * emission.g * atten
        out[2] += material.diffuse.b * emission.b * atten

    # Specular: one recursive reflection ray (kS * S term).
    if material.specular > 0.0 and depth < config.max_depth:
        reflected = reflect_about(ray.direction, normal)
        sub_color = trace_ray(
            scene, Ray(hit.point, reflected, normalized=True), config, depth + 1
        )
        out[0] += material.specular * sub_color[0]
        out[1] += material.specular * sub_color[1]
        out[2] += material.specular * sub_color[2]

    return (out[0], out[1], out[2])


def render_whitted(
    scene: Scene, camera: Camera, config: WhittedConfig | None = None
) -> np.ndarray:
    """Render a (height, width, 3) radiance image from one viewpoint.

    Unlike Photon's answer file, the entire computation must be repeated
    for every new viewpoint — the view-dependence the dissertation's
    chapter 2 holds against ray tracing.
    """
    config = config or WhittedConfig()
    out = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
    for j in range(camera.height):
        for i in range(camera.width):
            ray = camera.primary_ray(i, j)
            out[j, i] = trace_ray(scene, ray, config)
    return out
