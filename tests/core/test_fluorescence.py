"""Fluorescence extension: Stokes-shift band conversion."""

import pytest

from repro.core.fluorescence import FluorescenceSpec
from repro.geometry import Patch, Ray, Vec3, matte
from repro.paper.physics import Photon, fluorescent_reflect
from repro.rng import Lcg48


def black_patch() -> Patch:
    p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), matte("k", 0.0, 0.0, 0.0))
    p.patch_id = 0
    return p


def hit_on(patch):
    ray = Ray(Vec3(1, 1, -1), Vec3(0, -1, 0))
    hit = patch.intersect(ray)
    assert hit is not None
    return hit


class TestSpecValidation:
    def test_simple_constructor(self):
        spec = FluorescenceSpec.simple(blue_to_green=0.5, green_to_red=0.2)
        assert spec.probability(2, 1) == 0.5
        assert spec.probability(1, 0) == 0.2
        assert spec.probability(0, 1) == 0.0

    def test_up_conversion_rejected(self):
        with pytest.raises(ValueError):
            FluorescenceSpec(((0.0, 0.5, 0.0), (0.0,) * 3, (0.0,) * 3))

    def test_row_sum_bound(self):
        with pytest.raises(ValueError):
            FluorescenceSpec(((0.0,) * 3, (0.0,) * 3, (0.7, 0.7, 0.0)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FluorescenceSpec(((0.0,) * 3, (-0.1, 0.0, 0.0), (0.0,) * 3))

    def test_self_conversion_rejected(self):
        with pytest.raises(ValueError):
            FluorescenceSpec(((0.0,) * 3, (0.0, 0.5, 0.0), (0.0,) * 3))

    @pytest.mark.parametrize("row, col, value", [
        (1, 0, float("nan")),
        (1, 1, float("nan")),
        (2, 1, float("inf")),
        (2, 0, float("-inf")),
        (1, 0, "0.1"),
    ], ids=["nan-off-diagonal", "nan-on-diagonal", "inf", "minus-inf", "str"])
    def test_non_finite_or_non_real_rejected(self, row, col, value):
        """NaN fails every comparison the range and Stokes-shift checks
        make, so it used to pass them all; its trace key then equals
        nothing, not even an identical spec's."""
        conversion = [[0.0] * 3 for _ in range(3)]
        conversion[row][col] = value
        with pytest.raises(ValueError, match="finite reals"):
            FluorescenceSpec(tuple(tuple(r) for r in conversion))


class TestFluorescentReflect:
    def test_blue_downshifts_on_black_surface(self):
        """A black surface with a strong blue->green coating re-emits
        blue photons as green — light appears in a band the
        illumination never contained."""
        spec = FluorescenceSpec.simple(blue_to_green=1.0)
        patch = black_patch()
        rng = Lcg48(1)
        converted = 0
        for _ in range(500):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=2)
            res = fluorescent_reflect(photon, hit_on(patch), rng, spec)
            assert res is not None
            assert res.kind == "fluorescent"
            assert photon.band == 1  # band changed in place
            converted += 1
        assert converted == 500

    def test_conversion_rate(self):
        spec = FluorescenceSpec.simple(blue_to_green=0.3)
        patch = black_patch()
        rng = Lcg48(2)
        n = 6000
        converted = 0
        for _ in range(n):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=2)
            if fluorescent_reflect(photon, hit_on(patch), rng, spec) is not None:
                converted += 1
        assert converted / n == pytest.approx(0.3, abs=0.02)

    def test_red_cannot_convert(self):
        spec = FluorescenceSpec.simple(blue_to_green=1.0, green_to_red=1.0)
        patch = black_patch()
        rng = Lcg48(3)
        for _ in range(100):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            assert fluorescent_reflect(photon, hit_on(patch), rng, spec) is None

    def test_ordinary_reflection_unaffected(self):
        """On a reflective surface, normal reflection happens first at
        its usual rate; fluorescence only claims would-be absorptions."""
        spec = FluorescenceSpec.simple(blue_to_green=1.0)
        p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), matte("w", 0.6, 0.6, 0.6))
        p.patch_id = 0
        rng = Lcg48(4)
        kinds = {"diffuse": 0, "fluorescent": 0}
        n = 6000
        for _ in range(n):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=2)
            res = fluorescent_reflect(photon, hit_on(p), rng, spec)
            kinds[res.kind] += 1
        assert kinds["diffuse"] / n == pytest.approx(0.6, abs=0.02)
        assert kinds["fluorescent"] / n == pytest.approx(0.4, abs=0.02)

    def test_emission_into_upper_hemisphere(self):
        spec = FluorescenceSpec.simple(blue_to_green=1.0)
        patch = black_patch()
        rng = Lcg48(5)
        for _ in range(200):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=2)
            res = fluorescent_reflect(photon, hit_on(patch), rng, spec)
            assert res.direction.y > 0.0
            assert 0.0 <= res.r_squared < 1.0
