"""The chapter-6 pointer octree and the scalar tracer's scene queries.

The dissertation (chapter 6) singles out the octree as the structure that
"orders the intersection testing for a given photon such that we only test
polygons in the space the photon is traveling through.  When an
intersection is detected, it is the closest intersection and further
testing is not needed."  This module implements exactly that: children are
visited near-to-far along the ray, and traversal stops as soon as a hit
closer than the entry distance of every remaining cell is found.

Determinism contract
--------------------
Every intersector in the repo — the linear reference scan, this pointer
octree, and the vector engine's accelerators (the dense scan and the
flat walk of :mod:`repro.geometry.flatoctree`) — resolves
exact-distance ties to the **maximum patch id**.  The
rule is a pure function of ``(distance, patch_id)``, so the closest hit
is independent of traversal order, of duplicate patch membership across
leaves, and of which accelerator ran; that is what lets the scalar
oracle, the batch engine, and every parallel backend agree
tally-for-tally.  When changing traversal here, preserve (a) the tie
rule in both the leaf loop and the cross-cell merge, and (b) the slab
arithmetic of :meth:`repro.geometry.aabb.AABB.intersect_ray`, which the
batched kernels replicate expression-for-expression.

The pointer layout serves the one-ray-at-a-time scalar tracer
(:mod:`repro.paper.scalar`) and the chapter-2 baselines.
:func:`scene_octree` builds one per scene on first use, from the
scene's ``leaf_capacity`` / ``max_depth``; batch tracing builds its own
tree straight from the patch columns
(:meth:`repro.geometry.flatoctree.FlatOctree.build`) and never this one.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..geometry.aabb import AABB
from ..geometry.polygon import Hit, Patch
from ..geometry.ray import Ray
from ..geometry.scene import Scene, check_params, root_bounds

__all__ = [
    "Octree",
    "OctreeNode",
    "OctreeStats",
    "scene_octree",
    "intersect",
    "intersect_linear",
    "is_occluded",
]

_MAX_DEPTH_DEFAULT = 10
_LEAF_CAPACITY_DEFAULT = 8


@dataclass
class OctreeStats:
    """Build/traversal statistics (surfaced by benches and Fig. 5.15 text)."""

    node_count: int = 0
    leaf_count: int = 0
    max_depth_reached: int = 0
    patch_references: int = 0  # sum of per-leaf list lengths (with duplication)
    intersection_tests: int = 0  # cumulative patch tests across queries
    nodes_visited: int = 0  # cumulative node visits across queries

    def reset_traversal_counters(self) -> None:
        """Zero the per-query counters before a measurement."""
        self.intersection_tests = 0
        self.nodes_visited = 0


class OctreeNode:
    """One cell of the octree; either internal (8 children) or a leaf."""

    __slots__ = ("bounds", "children", "patches", "depth")

    def __init__(self, bounds: AABB, depth: int) -> None:
        self.bounds = bounds
        self.depth = depth
        self.children: Optional[list["OctreeNode"]] = None
        self.patches: list[Patch] = []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class Octree:
    """Octree over a fixed set of patches.

    Args:
        patches: Patches to index; must be non-empty.
        leaf_capacity: Split a leaf when it holds more than this many
            patches (and depth allows).
        max_depth: Hard depth cap; prevents unbounded refinement when
            many patches share a cell boundary.
    """

    def __init__(
        self,
        patches: Sequence[Patch],
        *,
        leaf_capacity: int = _LEAF_CAPACITY_DEFAULT,
        max_depth: int = _MAX_DEPTH_DEFAULT,
    ) -> None:
        if not patches:
            raise ValueError("octree needs at least one patch")
        check_params(leaf_capacity, max_depth)
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        self.stats = OctreeStats()
        self.root = OctreeNode(root_bounds(patches), depth=0)

        patch_boxes = [(p, p.bounds()) for p in patches]
        self._build(self.root, patch_boxes)
        self._collect_stats(self.root)

    # -- construction ---------------------------------------------------------

    def _build(self, node: OctreeNode, patch_boxes: list[tuple[Patch, AABB]]) -> None:
        if len(patch_boxes) <= self.leaf_capacity or node.depth >= self.max_depth:
            node.patches = [p for p, _ in patch_boxes]
            return
        children = [
            OctreeNode(node.bounds.octant(i), node.depth + 1) for i in range(8)
        ]
        buckets: list[list[tuple[Patch, AABB]]] = [[] for _ in range(8)]
        for p, box in patch_boxes:
            for i, child in enumerate(children):
                if child.bounds.overlaps(box):
                    buckets[i].append((p, box))
        # Guard against non-progress: if every child that receives a patch
        # receives all of them, this split separates nothing (the patches
        # all straddle the centre, or all sit in one octant, as coincident
        # patches do at every depth), so the node stays a leaf.
        if all(len(b) == len(patch_boxes) for b in buckets if b):
            node.patches = [p for p, _ in patch_boxes]
            return
        node.children = children
        for child, bucket in zip(children, buckets):
            self._build(child, bucket)

    def _collect_stats(self, node: OctreeNode) -> None:
        self.stats.node_count += 1
        self.stats.max_depth_reached = max(self.stats.max_depth_reached, node.depth)
        if node.is_leaf:
            self.stats.leaf_count += 1
            self.stats.patch_references += len(node.patches)
        else:
            for child in node.children:  # type: ignore[union-attr]
                self._collect_stats(child)

    # -- queries ----------------------------------------------------------------

    def intersect(self, ray: Ray, t_max: float = float("inf")) -> Optional[Hit]:
        """Closest patch hit along *ray*, or ``None``.

        Children are visited in order of slab entry distance so the first
        accepted hit in a nearer cell terminates the search (the property
        the paper contrasts with bounding-box schemes that would need a
        global reduction).
        """
        span = self.root.bounds.intersect_ray(ray, t_max)
        if span is None:
            return None
        return self._intersect_node(self.root, ray, t_max)

    def _intersect_node(
        self, node: OctreeNode, ray: Ray, t_max: float
    ) -> Optional[Hit]:
        stats = self.stats
        stats.nodes_visited += 1
        if node.is_leaf:
            best: Optional[Hit] = None
            limit = t_max
            for patch in node.patches:
                stats.intersection_tests += 1
                hit = patch.intersect(ray, limit)
                if hit is not None and (
                    best is None
                    or hit.distance < best.distance
                    or (
                        hit.distance == best.distance
                        and hit.patch.patch_id > best.patch.patch_id
                    )
                ):
                    # Ties resolve to the highest patch id explicitly
                    # rather than by list position, so the canonical rule
                    # holds for any patch ordering.
                    best = hit
                    limit = hit.distance
            return best

        # Order children near-to-far by entry distance.
        ordered: list[tuple[float, OctreeNode]] = []
        for child in node.children:  # type: ignore[union-attr]
            span = child.bounds.intersect_ray(ray, t_max)
            if span is not None:
                ordered.append((span[0], child))
        ordered.sort(key=lambda pair: pair[0])

        best = None
        limit = t_max
        for t_enter, child in ordered:
            if best is not None and t_enter > best.distance:
                break  # every remaining cell is entirely behind the hit
            hit = self._intersect_node(child, ray, limit)
            # Exact-distance ties (coplanar overlapping patches, common in
            # the lab scene) resolve to the highest patch id, matching the
            # linear reference scan so every intersector — linear, octree,
            # and the batched engine — agrees hit-for-hit.
            if hit is not None and (
                best is None
                or hit.distance < best.distance
                or (
                    hit.distance == best.distance
                    and hit.patch.patch_id > best.patch.patch_id
                )
            ):
                best = hit
                limit = hit.distance
        return best

    def is_occluded(self, ray: Ray, distance: float) -> bool:
        """Any-hit query: is there geometry strictly before *distance*?

        Used by the Whitted baseline's shadow rays and by form-factor
        visibility sampling in the radiosity baseline.
        """
        hit = self.intersect(ray, distance * (1.0 - 1e-9))
        return hit is not None

    # -- introspection --------------------------------------------------------------

    def iter_nodes(self) -> Iterator[OctreeNode]:
        """Depth-first iteration over all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[arg-type]

    def depth_histogram(self) -> dict[int, int]:
        """Leaf count per depth, for build-quality diagnostics."""
        out: dict[int, int] = {}
        for node in self.iter_nodes():
            if node.is_leaf:
                out[node.depth] = out.get(node.depth, 0) + 1
        return out


#: One tree per live scene, built on first use; the entry dies with the scene.
_TREES: "weakref.WeakKeyDictionary[Scene, Octree]" = weakref.WeakKeyDictionary()
_TREES_LOCK = threading.Lock()


def scene_octree(scene: Scene) -> Octree:
    """The pointer octree over *scene*'s patches, built on first use.

    Built once under a lock, so concurrent first callers share one tree,
    from the scene's ``leaf_capacity`` / ``max_depth``.  On
    ``gen:office-259`` it is most of a scene build and ~20 MB, which is
    why serving never asks for it.
    """
    tree = _TREES.get(scene)
    if tree is None:
        with _TREES_LOCK:
            tree = _TREES.get(scene)
            if tree is None:
                tree = _TREES[scene] = Octree(
                    scene.patches,
                    leaf_capacity=scene.leaf_capacity,
                    max_depth=scene.max_depth,
                )
    return tree


def intersect(scene: Scene, ray: Ray, t_max: float = float("inf")) -> Optional[Hit]:
    """Closest hit in *scene* (octree-accelerated)."""
    return scene_octree(scene).intersect(ray, t_max)


def intersect_linear(
    scene: Scene, ray: Ray, t_max: float = float("inf")
) -> Optional[Hit]:
    """Closest hit by brute-force scan of every patch.

    Kept as the correctness oracle for the octree and as the baseline
    for the octree ablation bench.
    """
    best: Optional[Hit] = None
    limit = t_max
    for patch in scene.patches:
        hit = patch.intersect(ray, limit)
        if hit is not None:
            best = hit
            limit = hit.distance
    return best


def is_occluded(scene: Scene, ray: Ray, distance: float) -> bool:
    """Any-hit shadow query strictly before *distance*."""
    return scene_octree(scene).is_occluded(ray, distance)
