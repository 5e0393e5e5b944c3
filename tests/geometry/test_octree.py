"""Octree: equivalence with brute force, near-to-far ordering, stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Ray, Vec3
from repro.paper.octree import Octree, intersect_linear, scene_octree
from tests.conftest import build_mini_scene


@pytest.fixture(scope="module")
def scene():
    return build_mini_scene()


coord = st.floats(min_value=-0.4, max_value=1.4, allow_nan=False)
direction_component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Octree([])

    def test_bad_params(self, scene):
        with pytest.raises(ValueError):
            Octree(scene.patches, leaf_capacity=0)
        with pytest.raises(ValueError):
            Octree(scene.patches, max_depth=-1)

    def test_stats_populated(self, scene):
        stats = scene_octree(scene).stats
        assert stats.node_count >= stats.leaf_count >= 1
        assert stats.patch_references >= len(scene.patches)

    def test_forced_leaf(self, scene):
        """max_depth=0 puts everything in the root leaf."""
        tree = Octree(scene.patches, max_depth=0)
        assert tree.root.is_leaf
        assert len(tree.root.patches) == len(scene.patches)

    def test_depth_histogram_counts_leaves(self, scene):
        hist = scene_octree(scene).depth_histogram()
        assert sum(hist.values()) == scene_octree(scene).stats.leaf_count

    def test_root_bounds_cover_all(self, scene):
        root = scene_octree(scene).root.bounds
        for patch in scene.patches:
            for corner in patch.corners():
                assert root.contains_point(corner)


class TestIntersection:
    def test_straight_down_hits_shelf_not_floor(self, scene):
        # The shelf at y=0.4 occludes the floor from above.
        hit = scene_octree(scene).intersect(Ray(Vec3(0.5, 0.9, 0.5), Vec3(0, -1, 0)))
        assert hit is not None
        assert hit.patch.name == "lamp" or hit.point.y > 0.0

    def test_t_max(self, scene):
        ray = Ray(Vec3(0.5, 0.5, -2.0), Vec3(0, 0, 1))
        assert scene_octree(scene).intersect(ray, t_max=1.0) is None
        assert scene_octree(scene).intersect(ray, t_max=5.0) is not None

    def test_miss_outside(self, scene):
        ray = Ray(Vec3(5, 5, 5), Vec3(0, 1, 0))
        assert scene_octree(scene).intersect(ray) is None

    @settings(max_examples=120, deadline=None)
    @given(
        st.builds(Vec3, coord, coord, coord),
        st.builds(Vec3, direction_component, direction_component, direction_component),
    )
    def test_equals_linear_scan(self, scene, origin, direction):
        """The octree must return exactly the brute-force closest hit."""
        if direction.length() < 1e-3:
            return
        ray = Ray(origin, direction)
        fast = scene_octree(scene).intersect(ray)
        slow = intersect_linear(scene, ray)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.patch.patch_id == slow.patch.patch_id
            assert fast.distance == pytest.approx(slow.distance, rel=1e-12)

    def test_traversal_counters_grow(self, scene):
        before = scene_octree(scene).stats.intersection_tests
        scene_octree(scene).intersect(Ray(Vec3(0.5, 0.5, -2.0), Vec3(0, 0, 1)))
        assert scene_octree(scene).stats.intersection_tests > before

    def test_counter_reset(self, scene):
        scene_octree(scene).stats.reset_traversal_counters()
        assert scene_octree(scene).stats.intersection_tests == 0
        assert scene_octree(scene).stats.nodes_visited == 0


class TestOcclusion:
    def test_occluded_by_shelf(self, scene):
        # Floor centre to lamp: the shelf is in between.
        ray = Ray(Vec3(0.5, 0.001, 0.5), Vec3(0, 1, 0))
        assert scene_octree(scene).is_occluded(ray, 0.97)

    def test_not_occluded_short_range(self, scene):
        ray = Ray(Vec3(0.5, 0.001, 0.5), Vec3(0, 1, 0))
        assert not scene_octree(scene).is_occluded(ray, 0.3)

    def test_iter_nodes_complete(self, scene):
        nodes = list(scene_octree(scene).iter_nodes())
        assert len(nodes) == scene_octree(scene).stats.node_count
