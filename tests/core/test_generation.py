"""Photon generation: distributions, FLOP accounting, directional scaling."""

import math

import numpy as np
import pytest

from repro.paper.physics import (
    direction_formula,
    direction_formula_batch,
    direction_rejection,
    direction_rejection_batch,
    emit_photon,
    expected_flops_rejection,
    flops_formula,
)
from repro.rng import Lcg48
from repro.scenes.harpsichord import SUN_HALF_ANGLE_RADIANS


def moments(samples):
    zs = [z for _, _, z in samples]
    rs = [x * x + y * y for x, y, _ in samples]
    n = len(samples)
    return sum(zs) / n, sum(rs) / n


class TestDistributions:
    def test_rejection_unit_vectors(self):
        rng = Lcg48(1)
        for _ in range(500):
            x, y, z = direction_rejection(rng)
            assert math.isclose(x * x + y * y + z * z, 1.0, rel_tol=1e-12)
            assert z >= 0.0

    def test_formula_unit_vectors(self):
        rng = Lcg48(2)
        for _ in range(500):
            x, y, z = direction_formula(rng)
            assert math.isclose(x * x + y * y + z * z, 1.0, rel_tol=1e-12)
            assert z >= 0.0

    def test_cosine_weighted_moments_rejection(self):
        """For a cosine lobe, E[z] = 2/3 and E[r^2] = 1/2."""
        rng = Lcg48(3)
        n = 30000
        ez, er2 = moments([direction_rejection(rng) for _ in range(n)])
        assert ez == pytest.approx(2.0 / 3.0, abs=0.01)
        assert er2 == pytest.approx(0.5, abs=0.01)

    def test_both_kernels_same_distribution(self):
        """The paper's kernel and the Shirley formula must agree."""
        rng1, rng2 = Lcg48(4), Lcg48(5)
        n = 30000
        ez1, er1 = moments([direction_rejection(rng1) for _ in range(n)])
        ez2, er2 = moments([direction_formula(rng2) for _ in range(n)])
        assert ez1 == pytest.approx(ez2, abs=0.012)
        assert er1 == pytest.approx(er2, abs=0.012)

    def test_azimuthal_symmetry(self):
        rng = Lcg48(6)
        n = 20000
        quads = [0] * 4
        for _ in range(n):
            x, y, _ = direction_rejection(rng)
            quads[(0 if x >= 0 else 1) + (0 if y >= 0 else 2)] += 1
        for q in quads:
            assert q == pytest.approx(n / 4, rel=0.06)


class TestDirectionalScaling:
    def test_sun_cone(self):
        """Scaling the unit circle restricts emission to the sun's cone."""
        rng = Lcg48(7)
        scale = math.sin(SUN_HALF_ANGLE_RADIANS)
        for _ in range(2000):
            x, y, z = direction_rejection(rng, scale=scale)
            angle = math.acos(min(z, 1.0))
            assert angle <= SUN_HALF_ANGLE_RADIANS + 1e-9

    def test_moderate_cone(self):
        rng = Lcg48(8)
        half = math.radians(30.0)
        scale = math.sin(half)
        angles = []
        for _ in range(2000):
            x, y, z = direction_rejection(rng, scale=scale)
            angles.append(math.acos(min(z, 1.0)))
        assert max(angles) <= half + 1e-9
        assert max(angles) > half * 0.9  # cone is actually filled


class TestFlops:
    def test_rejection_expected_near_paper(self):
        """Paper: 22 operations expected for the Figure 4.3 kernel."""
        assert expected_flops_rejection() == pytest.approx(22.0, abs=1.0)

    def test_formula_is_34(self):
        assert flops_formula() == 34

    def test_rejection_cheaper(self):
        assert expected_flops_rejection() < flops_formula()


class TestBatchKernels:
    def test_rejection_batch_shape_and_norm(self):
        out = direction_rejection_batch(1000, seed=1)
        assert out.shape == (1000, 3)
        norms = np.linalg.norm(out, axis=1)
        assert np.allclose(norms, 1.0)
        assert np.all(out[:, 2] >= 0)

    def test_formula_batch_shape_and_norm(self):
        out = direction_formula_batch(1000, seed=1)
        assert out.shape == (1000, 3)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_batch_moments_match(self):
        a = direction_rejection_batch(40000, seed=2)
        b = direction_formula_batch(40000, seed=3)
        assert np.mean(a[:, 2]) == pytest.approx(np.mean(b[:, 2]), abs=0.01)

    def test_zero_length(self):
        assert direction_rejection_batch(0).shape == (0, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            direction_rejection_batch(-1)
        with pytest.raises(ValueError):
            direction_formula_batch(-1)


class TestEmission:
    def test_record_fields_valid(self, mini_scene):
        rng = Lcg48(9)
        for _ in range(300):
            rec = emit_photon(mini_scene, rng)
            assert 0.0 <= rec.s <= 1.0
            assert 0.0 <= rec.t <= 1.0
            assert 0.0 <= rec.theta < 2 * math.pi + 1e-9
            assert 0.0 <= rec.r_squared < 1.0
            assert rec.photon.band in (0, 1, 2)
            lum_patch = mini_scene.patch_by_id(rec.patch_id)
            assert lum_patch.material.is_emitter

    def test_emission_points_on_luminaire(self, mini_scene):
        rng = Lcg48(10)
        rec = emit_photon(mini_scene, rng)
        patch = mini_scene.patch_by_id(rec.patch_id)
        expected = patch.point_at(rec.s, rec.t)
        assert (rec.photon.position - expected).length() < 1e-12

    def test_emission_into_hemisphere(self, mini_scene):
        """Photons leave along the luminaire normal's hemisphere."""
        rng = Lcg48(11)
        for _ in range(200):
            rec = emit_photon(mini_scene, rng)
            patch = mini_scene.patch_by_id(rec.patch_id)
            assert rec.photon.direction.dot(patch.normal) >= 0.0

    def test_band_proportions(self, cornell):
        """Band selection follows the lamp's spectrum (18:15:10)."""
        rng = Lcg48(12)
        n = 12000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[emit_photon(cornell, rng).photon.band] += 1
        total_emission = 18.0 + 15.0 + 10.0
        assert counts[0] / n == pytest.approx(18.0 / total_emission, abs=0.02)
        assert counts[2] / n == pytest.approx(10.0 / total_emission, abs=0.02)

    def test_deterministic(self, mini_scene):
        a = emit_photon(mini_scene, Lcg48(13))
        b = emit_photon(mini_scene, Lcg48(13))
        assert a.photon.position == b.photon.position
        assert a.photon.direction == b.photon.direction
        assert a.photon.band == b.photon.band
