"""Ablation — octree vs linear intersection testing.

Chapter 6 argues the octree is the right substrate for (future) geometry
distribution because it "orders the intersection testing ... such that
we only test polygons in the space the photon is traveling through".
This bench measures both the work metric (patch tests per ray) and wall
time on the 2000-polygon Computer Laboratory.
"""

import pytest

from repro.geometry import Ray, Vec3
from repro.paper.octree import intersect, intersect_linear, scene_octree
from repro.paper.perf import format_table
from repro.rng import Lcg48

N_RAYS = 300


def make_rays(scene, n=N_RAYS):
    rng = Lcg48(5)
    bounds = scene.bounds()
    lo, hi = bounds.lo, bounds.hi
    rays = []
    for _ in range(n):
        origin = Vec3(
            lo.x + rng.uniform() * (hi.x - lo.x),
            lo.y + rng.uniform() * (hi.y - lo.y),
            lo.z + rng.uniform() * (hi.z - lo.z),
        )
        direction = Vec3(
            rng.uniform_signed(), rng.uniform_signed(), rng.uniform_signed()
        )
        if direction.length() < 1e-6:
            direction = Vec3(0, 1, 0)
        rays.append(Ray(origin, direction))
    return rays


@pytest.fixture(scope="module")
def lab_rays(scenes):
    return make_rays(scenes["computer-lab"])


def octree_pass(scene, rays):
    return [intersect(scene, ray) for ray in rays]


def linear_pass(scene, rays):
    return [intersect_linear(scene, ray) for ray in rays]


class TestWorkMetric:
    def test_tests_per_ray(self, scenes, lab_rays, benchmark):
        scene = scenes["computer-lab"]
        scene_octree(scene).stats.reset_traversal_counters()
        hits = benchmark.pedantic(
            octree_pass, args=(scene, lab_rays), rounds=1, iterations=1
        )
        octree_tests = scene_octree(scene).stats.intersection_tests / len(lab_rays)
        linear_tests = scene.defining_polygon_count  # every patch, every ray

        print("\nAblation — intersection tests per ray (Computer Lab)")
        print(
            format_table(
                ["structure", "patch tests / ray"],
                [
                    ["octree", f"{octree_tests:.1f}"],
                    ["linear scan", linear_tests],
                ],
            )
        )
        # The paper's prerequisite: the octree prunes the vast majority.
        assert octree_tests < linear_tests / 10
        assert any(h is not None for h in hits)

    def test_same_answers(self, scenes, lab_rays, benchmark):
        scene = scenes["computer-lab"]

        def check():
            for ray in lab_rays[:60]:
                a = intersect(scene, ray)
                b = intersect_linear(scene, ray)
                if b is None:
                    assert a is None
                else:
                    assert a is not None
                    assert a.patch.patch_id == b.patch.patch_id

        benchmark.pedantic(check, rounds=1, iterations=1)


class TestWallClock:
    def test_octree_time(self, scenes, lab_rays, benchmark):
        benchmark(octree_pass, scenes["computer-lab"], lab_rays)

    def test_linear_time(self, scenes, lab_rays, benchmark):
        benchmark.pedantic(
            linear_pass, args=(scenes["computer-lab"], lab_rays), rounds=1, iterations=1
        )
