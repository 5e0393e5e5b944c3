"""Geometric substrate: vectors, rays, patches, the flat octree, scenes."""

from .aabb import AABB
from .builders import axis_rect, box, quad_from_corners, room, table
from .material import BLACK, RGB, Material, emitter, glossy, matte, mirror
from .flatoctree import FlatOctree
from .polygon import Patch
from .ray import EPSILON, Ray
from .scene import Scene
from .vec import Vec3

__all__ = [
    "AABB",
    "BLACK",
    "EPSILON",
    "FlatOctree",
    "Material",
    "Patch",
    "RGB",
    "Ray",
    "Scene",
    "Vec3",
    "axis_rect",
    "box",
    "emitter",
    "glossy",
    "matte",
    "mirror",
    "quad_from_corners",
    "room",
    "table",
]
