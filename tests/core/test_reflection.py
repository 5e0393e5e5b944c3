"""Reflection: Russian roulette rates, lobe geometry, bin coordinates."""

import math

import pytest

from repro.core.radiance import local_frame_coords
from repro.geometry import Patch, Ray, Vec3, matte, mirror
from repro.geometry.material import glossy
from repro.paper.physics import Photon, reflect
from repro.rng import Lcg48


def make_patch(material) -> Patch:
    p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), material, name="floor")
    p.patch_id = 0
    return p


def hit_from_above(patch, x=1.0, z=-1.0):
    ray = Ray(Vec3(x, 1.0, z), Vec3(0, -1, 0))
    hit = patch.intersect(ray)
    assert hit is not None
    return hit


class TestRoulette:
    def test_absorption_rate_matches_material(self):
        mat = matte("half", 0.5, 0.5, 0.5)
        patch = make_patch(mat)
        rng = Lcg48(1)
        n = 8000
        reflected = 0
        for _ in range(n):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            hit = hit_from_above(patch)
            if reflect(photon, hit, rng) is not None:
                reflected += 1
        assert reflected / n == pytest.approx(0.5, abs=0.02)

    def test_band_dependent_absorption(self):
        mat = matte("red", 0.9, 0.1, 0.1)
        patch = make_patch(mat)
        rng = Lcg48(2)
        n = 6000
        refl = [0, 0]
        for band in (0, 1):
            for _ in range(n):
                photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=band)
                if reflect(photon, hit_from_above(patch), rng) is not None:
                    refl[band] += 1
        assert refl[0] / n == pytest.approx(0.9, abs=0.02)
        assert refl[1] / n == pytest.approx(0.1, abs=0.02)

    def test_black_absorbs_everything(self):
        patch = make_patch(matte("black", 0.0, 0.0, 0.0))
        rng = Lcg48(3)
        for _ in range(100):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=1)
            assert reflect(photon, hit_from_above(patch), rng) is None


class TestDiffuse:
    def test_outgoing_above_surface(self):
        patch = make_patch(matte("w", 1.0, 1.0, 1.0))
        rng = Lcg48(4)
        for _ in range(500):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            res = reflect(photon, hit_from_above(patch), rng)
            assert res is not None
            assert res.kind == "diffuse"
            assert res.direction.y > 0.0  # back into the upper half space

    def test_cosine_moment(self):
        patch = make_patch(matte("w", 1.0, 1.0, 1.0))
        rng = Lcg48(5)
        zs = []
        for _ in range(20000):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            res = reflect(photon, hit_from_above(patch), rng)
            zs.append(res.direction.y)
        assert sum(zs) / len(zs) == pytest.approx(2.0 / 3.0, abs=0.01)


class TestMirror:
    def test_exact_reflection(self):
        patch = make_patch(mirror("m", 1.0))
        rng = Lcg48(6)
        incident = Vec3(1, -1, 0).normalized()
        photon = Photon(Vec3(0.0, 1.0, -1.0), incident, band=0)
        ray = Ray(Vec3(0.0, 1.0, -1.0), incident, normalized=True)
        hit = patch.intersect(ray)
        assert hit is not None
        res = reflect(photon, hit, rng)
        assert res is not None
        assert res.kind == "mirror"
        expected = Vec3(1, 1, 0).normalized()
        assert (res.direction - expected).length() < 1e-12

    def test_grazing_stays_above(self):
        patch = make_patch(mirror("m", 1.0))
        rng = Lcg48(7)
        incident = Vec3(1, -0.05, 0).normalized()
        ray = Ray(Vec3(0.0, 0.05, -1.0), incident, normalized=True)
        hit = patch.intersect(ray)
        assert hit is not None
        photon = Photon(ray.origin, incident, band=0)
        res = reflect(photon, hit, rng)
        assert res is not None and res.direction.y > 0


class TestGlossy:
    def test_lobe_centred_on_mirror_direction(self):
        mat = glossy("g", 0.0, 0.0, 0.0, specular=1.0, gloss=200.0)
        patch = make_patch(mat)
        rng = Lcg48(8)
        incident = Vec3(1, -1, 0).normalized()
        expected = Vec3(1, 1, 0).normalized()
        dots = []
        for _ in range(2000):
            ray = Ray(Vec3(0.0, 1.0, -1.0), incident, normalized=True)
            hit = patch.intersect(ray)
            photon = Photon(ray.origin, incident, band=0)
            res = reflect(photon, hit, rng)
            if res is None:
                continue
            assert res.kind == "glossy"
            dots.append(res.direction.dot(expected))
        # A gloss-200 lobe is tight: mean cosine to the mirror direction
        # should be very close to 1.
        assert sum(dots) / len(dots) > 0.98

    def test_semi_diffuse_mixture(self):
        """Both lobes appear with their configured probabilities."""
        mat = glossy("g", 0.4, 0.4, 0.4, specular=0.4, gloss=30.0)
        patch = make_patch(mat)
        rng = Lcg48(9)
        kinds = {"diffuse": 0, "glossy": 0, None: 0}
        n = 6000
        for _ in range(n):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            res = reflect(photon, hit_from_above(patch), rng)
            kinds[res.kind if res else None] += 1
        assert kinds["diffuse"] / n == pytest.approx(0.4, abs=0.02)
        assert kinds["glossy"] / n == pytest.approx(0.4, abs=0.02)
        assert kinds[None] / n == pytest.approx(0.2, abs=0.02)


class TestBinCoordinates:
    def test_local_frame_ranges(self):
        patch = make_patch(matte("w", 1.0, 1.0, 1.0))
        rng = Lcg48(10)
        for _ in range(1000):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            res = reflect(photon, hit_from_above(patch), rng)
            assert 0.0 <= res.theta < 2 * math.pi
            assert 0.0 <= res.r_squared < 1.0

    def test_normal_direction_r_zero(self):
        patch = make_patch(matte("w", 1, 1, 1))
        theta, r2 = local_frame_coords(patch.normal, patch)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_tangent_direction_r_one(self):
        patch = make_patch(matte("w", 1, 1, 1))
        tangent = patch.eu.normalized()
        theta, r2 = local_frame_coords(tangent, patch)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_backface_folding(self):
        """Directions below the surface fold onto the same (theta, r^2)."""
        patch = make_patch(matte("w", 1, 1, 1))
        up = Vec3(0.3, 0.8, 0.1).normalized()
        down = Vec3(0.3, -0.8, 0.1).normalized()
        assert local_frame_coords(up, patch) == pytest.approx(
            local_frame_coords(down, patch)
        )

    def test_r_squared_uniform_for_diffuse(self):
        """Lambertian output is uniform in r^2 — the squared-radius
        property the paper's split-axis choice relies on."""
        patch = make_patch(matte("w", 1, 1, 1))
        rng = Lcg48(11)
        low = 0
        n = 20000
        for _ in range(n):
            photon = Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0)
            res = reflect(photon, hit_from_above(patch), rng)
            if res.r_squared < 0.5:
                low += 1
        assert low / n == pytest.approx(0.5, abs=0.012)
