"""Polarization extension: Stokes algebra and Mueller transport."""

import math

import pytest

from repro.geometry import Patch, Ray, Vec3, matte, mirror
from repro.paper.physics import Photon
from repro.paper.polarization import (
    MuellerMatrix,
    PolarizedPhoton,
    StokesVector,
    depolarizer_mueller,
    fresnel_reflection_mueller,
    polarized_reflect,
    rotation_mueller,
)
from repro.rng import Lcg48


class TestStokesVector:
    def test_unpolarized(self):
        s = StokesVector.unpolarized(2.0)
        assert s.i == 2.0
        assert s.degree_of_polarization() == 0.0

    def test_linear(self):
        s = StokesVector.linear(1.0, 0.0)
        assert s.q == pytest.approx(1.0)
        assert s.degree_of_polarization() == pytest.approx(1.0)

    def test_linear_45_degrees(self):
        s = StokesVector.linear(1.0, math.pi / 4)
        assert s.q == pytest.approx(0.0, abs=1e-12)
        assert s.u == pytest.approx(1.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            StokesVector(-1.0)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            StokesVector(1.0, 1.0, 1.0, 0.0)

    def test_zero_intensity_dop(self):
        assert StokesVector(0.0).degree_of_polarization() == 0.0


class TestMuellerMatrices:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            MuellerMatrix(((1, 0), (0, 1)))

    def test_rotation_preserves_intensity_and_dop(self):
        s = StokesVector.linear(1.0, 0.3)
        r = rotation_mueller(0.7)
        out = r.apply(s)
        assert out.i == pytest.approx(1.0)
        assert out.degree_of_polarization() == pytest.approx(1.0)

    def test_rotation_angle_addition(self):
        """Rotating a linear state by a shifts its angle by a."""
        s = StokesVector.linear(1.0, 0.2)
        out = rotation_mueller(-0.3).apply(s)
        expected = StokesVector.linear(1.0, 0.5)
        assert out.q == pytest.approx(expected.q, abs=1e-12)
        assert out.u == pytest.approx(expected.u, abs=1e-12)

    def test_rotation_composition(self):
        a = rotation_mueller(0.2)
        b = rotation_mueller(0.5)
        composed = a.compose(b)
        s = StokesVector.linear(1.0, 0.1)
        x = composed.apply(s)
        y = a.apply(b.apply(s))
        for u, v in zip(x.as_tuple(), y.as_tuple()):
            assert u == pytest.approx(v, abs=1e-12)

    def test_neutral_mirror_preserves_polarization(self):
        m = fresnel_reflection_mueller(0.9, 0.9)
        s = StokesVector.linear(1.0, 0.4)
        out = m.apply(s)
        assert out.i == pytest.approx(0.9)
        assert out.degree_of_polarization() == pytest.approx(1.0)

    def test_polarizing_mirror_polarizes_unpolarized(self):
        """rs != rp imparts linear polarization to unpolarized light —
        the physical effect the paper expects to matter for realism."""
        m = fresnel_reflection_mueller(1.0, 0.5)
        out = m.apply(StokesVector.unpolarized())
        assert out.i == pytest.approx(0.75)
        assert out.q == pytest.approx(0.25)
        assert 0.3 < out.degree_of_polarization() < 0.4

    def test_reflectance_bounds(self):
        with pytest.raises(ValueError):
            fresnel_reflection_mueller(1.2, 0.5)

    def test_depolarizer(self):
        m = depolarizer_mueller(0.8)
        out = m.apply(StokesVector.linear(1.0, 0.3))
        assert out.i == pytest.approx(0.8)
        assert out.degree_of_polarization() == 0.0

    def test_depolarizer_albedo_bounds(self):
        with pytest.raises(ValueError):
            depolarizer_mueller(1.5)


class TestPolarizedTransport:
    def _mirror_floor(self):
        p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), mirror("m", 1.0))
        p.patch_id = 0
        return p

    def _diffuse_floor(self):
        p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), matte("d", 1.0, 1.0, 1.0))
        p.patch_id = 0
        return p

    def test_from_photon_unpolarized(self):
        photon = Photon(Vec3(0, 1, 0), Vec3(0, -1, 0), band=0)
        pp = PolarizedPhoton.from_photon(photon)
        assert pp.stokes.degree_of_polarization() == 0.0
        assert abs(pp.frame_x.dot(photon.direction)) < 1e-12

    def test_mirror_bounce_polarizes(self):
        patch = self._mirror_floor()
        rng = Lcg48(1)
        incident = Vec3(1, -1, 0).normalized()
        ray = Ray(Vec3(0.0, 1.0, -1.0), incident, normalized=True)
        hit = patch.intersect(ray)
        pp = PolarizedPhoton.from_photon(Photon(ray.origin, incident, band=0))
        out = polarized_reflect(pp, hit, rng, mirror_rs=1.0, mirror_rp=0.5)
        assert out is not None
        _, advanced = out
        assert advanced.stokes.degree_of_polarization() > 0.1
        # Frame stays perpendicular to travel.
        assert abs(advanced.frame_x.dot(advanced.photon.direction)) < 1e-9

    def test_diffuse_bounce_depolarizes(self):
        patch = self._diffuse_floor()
        rng = Lcg48(2)
        pp = PolarizedPhoton.from_photon(Photon(Vec3(1, 1, -1), Vec3(0, -1, 0), band=0))
        pp = PolarizedPhoton(
            photon=pp.photon,
            stokes=StokesVector.linear(1.0, 0.3),
            frame_x=pp.frame_x,
        )
        ray = Ray(Vec3(1, 1, -1), Vec3(0, -1, 0))
        hit = patch.intersect(ray)
        out = polarized_reflect(pp, hit, rng)
        assert out is not None
        _, advanced = out
        assert advanced.stokes.degree_of_polarization() == 0.0

    def test_absorption_returns_none(self):
        p = Patch(Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, -2), matte("k", 0.0, 0.0, 0.0))
        p.patch_id = 0
        rng = Lcg48(3)
        ray = Ray(Vec3(1, 1, -1), Vec3(0, -1, 0))
        hit = p.intersect(ray)
        pp = PolarizedPhoton.from_photon(Photon(ray.origin, ray.direction, band=0))
        assert polarized_reflect(pp, hit, rng) is None

    def test_repeated_mirror_bounces_stay_physical(self):
        """Many polarizing bounces never exceed DOP 1 (the Mueller
        clamp plus renormalisation keep the state physical)."""
        patch = self._mirror_floor()
        rng = Lcg48(4)
        incident = Vec3(1, -1, 0).normalized()
        pp = PolarizedPhoton.from_photon(Photon(Vec3(0.0, 1.0, -1.0), incident, band=0))
        for _ in range(6):
            ray = Ray(
                pp.photon.position + Vec3(0, 1.0, 0) - pp.photon.position,
                Vec3(0.3, -1.0, 0.1),
            )
            hit = patch.intersect(Ray(Vec3(0.5, 1.0, -1.0), Vec3(0.3, -1.0, 0.1)))
            out = polarized_reflect(pp, hit, rng, mirror_rs=1.0, mirror_rp=0.4)
            if out is None:
                break
            _, pp = out
            assert pp.stokes.degree_of_polarization() <= 1.0 + 1e-9
            assert pp.stokes.i == pytest.approx(1.0)
