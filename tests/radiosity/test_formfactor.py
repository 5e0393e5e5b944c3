"""Form factors: kernel properties, reciprocity, occlusion."""

import math

import pytest

from repro.geometry import Patch, Vec3, matte
from repro.paper.radiosity import form_factor_matrix, patch_form_factor, point_form_factor
from repro.rng import Lcg48

MAT = matte("m", 0.5, 0.5, 0.5)


def facing_plates(gap: float, size: float = 1.0) -> tuple[Patch, Patch]:
    """Two parallel square plates facing each other across *gap*."""
    bottom = Patch(Vec3(0, 0, 0), Vec3(0, 0, size), Vec3(size, 0, 0), MAT, "bottom")
    top = Patch(
        Vec3(0, gap, 0), Vec3(size, 0, 0), Vec3(0, 0, size), MAT, "top"
    )  # wound so the normal faces down
    assert top.normal.y < 0 and bottom.normal.y > 0
    return bottom, top


class TestPointKernel:
    def test_facing_points(self):
        k = point_form_factor(
            Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 1, 0), Vec3(0, -1, 0)
        )
        assert k == pytest.approx(1.0 / math.pi)

    def test_back_facing_zero(self):
        k = point_form_factor(
            Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 1, 0), Vec3(0, 1, 0)
        )
        assert k == 0.0

    def test_inverse_square(self):
        k1 = point_form_factor(Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 1, 0), Vec3(0, -1, 0))
        k2 = point_form_factor(Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 2, 0), Vec3(0, -1, 0))
        assert k1 / k2 == pytest.approx(4.0)

    def test_coincident_zero(self):
        assert point_form_factor(Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 0), Vec3(0, -1, 0)) == 0.0


class TestPatchFormFactor:
    def test_distant_plates_analytic(self):
        """Far apart, F ~ A cos cos / (pi r^2): plates of area 1 at
        distance 10 give F ~ 1/(100 pi)."""
        bottom, top = facing_plates(gap=10.0)
        f = patch_form_factor(bottom, top, samples=400, rng=Lcg48(1))
        assert f == pytest.approx(1.0 / (100.0 * math.pi), rel=0.1)

    def test_reciprocity(self):
        """A_i F_ij == A_j F_ji (statistically)."""
        a = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, 2), MAT, "big")
        b = Patch(Vec3(0.5, 3, 0.5), Vec3(0, 0, 1), Vec3(1, 0, 0), MAT, "small")
        f_ab = patch_form_factor(a, b, samples=3000, rng=Lcg48(2))
        f_ba = patch_form_factor(b, a, samples=3000, rng=Lcg48(3))
        assert a.area * f_ab == pytest.approx(b.area * f_ba, rel=0.15)

    def test_bounded_by_one(self):
        """The disk estimator cannot blow past 1 even touching."""
        bottom, top = facing_plates(gap=0.01)
        f = patch_form_factor(bottom, top, samples=200, rng=Lcg48(4))
        assert 0.0 < f <= 1.0

    def test_occlusion_reduces(self, mini_scene):
        """With the shelf between floor and lamp, occluded sampling
        yields a smaller factor than unoccluded."""
        floor = mini_scene.patch_by_id(0)
        lamp = next(p for p in mini_scene.patches if p.material.is_emitter)
        free = patch_form_factor(floor, lamp, None, samples=600, rng=Lcg48(5))
        occluded = patch_form_factor(floor, lamp, mini_scene, samples=600, rng=Lcg48(5))
        assert occluded < free

    def test_bad_samples(self):
        bottom, top = facing_plates(1.0)
        with pytest.raises(ValueError):
            patch_form_factor(bottom, top, samples=0)


class TestMatrix:
    def test_diagonal_zero(self, mini_scene):
        ff = form_factor_matrix(mini_scene, samples=4)
        for i in range(len(mini_scene.patches)):
            assert ff[i, i] == 0.0

    def test_nonnegative(self, mini_scene):
        ff = form_factor_matrix(mini_scene, samples=4)
        assert (ff >= 0.0).all()

    def test_rows_bounded(self, mini_scene):
        """Closed environment: row sums near or below 1 (the disk
        estimator under-counts near field, never over 1.1)."""
        ff = form_factor_matrix(mini_scene, samples=8)
        sums = ff.sum(axis=1)
        assert (sums <= 1.1).all()
        assert sums.max() > 0.3  # the room actually closes around patches
