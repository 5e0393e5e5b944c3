"""Scene container: patch ids, luminaire CDF, power accounting."""

import pytest

from repro.geometry import Scene, Vec3, axis_rect, matte
from repro.geometry.material import emitter
from repro.paper.octree import intersect, intersect_linear


def two_lamp_scene() -> Scene:
    white = matte("w", 0.5, 0.5, 0.5)
    small = emitter("small", 1.0, 1.0, 1.0)  # area 1 -> power 3
    big = emitter("big", 3.0, 3.0, 3.0)  # area 1 -> power 9
    patches = [
        axis_rect("y", 0.0, (0.0, 2.0), (0.0, 2.0), white, name="floor", flip=True),
        axis_rect("y", 2.0, (0.0, 1.0), (0.0, 1.0), small, name="small"),
        axis_rect("y", 2.0, (1.0, 2.0), (1.0, 2.0), big, name="big"),
    ]
    return Scene(patches, name="two-lamps")


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Scene([], name="x")

    def test_no_luminaire_raises(self):
        white = matte("w", 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Scene([axis_rect("y", 0, (0, 1), (0, 1), white)], name="dark")

    def test_patch_ids_dense(self):
        scene = two_lamp_scene()
        assert [p.patch_id for p in scene.patches] == [0, 1, 2]

    def test_patch_by_id(self):
        scene = two_lamp_scene()
        assert scene.patch_by_id(1).name == "small"

    def test_stats(self):
        s = two_lamp_scene().stats()
        assert s.defining_polygons == 3
        assert s.emitters == 2
        assert s.total_power == pytest.approx(12.0)


class TestPower:
    def test_total_power(self):
        assert two_lamp_scene().total_power == pytest.approx(12.0)

    def test_band_powers(self):
        scene = two_lamp_scene()
        assert scene.band_powers[0] == pytest.approx(4.0)
        assert sum(scene.band_powers) == pytest.approx(scene.total_power)

    def test_pick_luminaire_proportional(self):
        scene = two_lamp_scene()
        # small has power 3/12 -> u < 0.25 selects it.
        assert scene.pick_luminaire(0.1).patch.name == "small"
        assert scene.pick_luminaire(0.3).patch.name == "big"
        assert scene.pick_luminaire(0.999).patch.name == "big"

    def test_pick_luminaire_boundary(self):
        scene = two_lamp_scene()
        assert scene.pick_luminaire(0.0).patch.name == "small"

    def test_pick_luminaire_statistics(self):
        """Frequency of selection matches power share."""
        from repro.rng import Lcg48

        scene = two_lamp_scene()
        rng = Lcg48(3)
        picks = sum(
            1 for _ in range(4000) if scene.pick_luminaire(rng.uniform()).patch.name == "big"
        )
        assert picks / 4000 == pytest.approx(0.75, abs=0.03)


class TestQueries:
    def test_intersect_agrees_with_linear(self, mini_scene):
        from repro.geometry import Ray

        ray = Ray(Vec3(0.5, 0.5, -1.0), Vec3(0, 0, 1))
        a = intersect(mini_scene, ray)
        b = intersect_linear(mini_scene, ray)
        assert a is not None and b is not None
        assert a.patch.patch_id == b.patch.patch_id

    def test_bounds(self, mini_scene):
        assert mini_scene.bounds().contains_point(Vec3(0.5, 0.5, 0.5))

    def test_repr(self, mini_scene):
        assert "mini-box" in repr(mini_scene)
