"""Geometric substrate: vectors, rays, patches, the flat octree, scenes."""

from .aabb import AABB
from .builders import axis_rect, box, parallelogram, quad_from_corners, room, table
from .material import (
    BLACK,
    RGB,
    WHITE,
    Material,
    emitter,
    glossy,
    matte,
    mirror,
)
from .flatoctree import FlatOctree
from .polygon import Hit, Patch
from .ray import EPSILON, Ray
from .scene import Luminaire, Scene, SceneStats
from .transform import Transform, rotate_x, rotate_y, rotate_z, translate
from .vec import Vec3

__all__ = [
    "AABB",
    "BLACK",
    "EPSILON",
    "FlatOctree",
    "Hit",
    "Luminaire",
    "Material",
    "Patch",
    "RGB",
    "Ray",
    "Scene",
    "SceneStats",
    "Transform",
    "Vec3",
    "WHITE",
    "rotate_x",
    "rotate_y",
    "rotate_z",
    "translate",
    "axis_rect",
    "box",
    "emitter",
    "glossy",
    "matte",
    "mirror",
    "parallelogram",
    "quad_from_corners",
    "room",
    "table",
]
