"""Radiance reconstruction: normalisation and energy conservation."""

import math

import pytest

from repro.core import RadianceField, SimulationConfig, SplitPolicy
from repro.core.binning import BinCoords
from repro.core.bintree import BinForest
from repro.geometry import Vec3
from repro.paper.scalar import run_scalar


@pytest.fixture(scope="module")
def sim_result(request):
    scene = request.getfixturevalue("mini_scene")
    cfg = SimulationConfig(n_photons=4000, policy=SplitPolicy(min_count=16))
    return run_scalar(scene, cfg)


class TestConstruction:
    def test_requires_emitted_photons(self, mini_scene):
        with pytest.raises(ValueError):
            RadianceField(mini_scene, BinForest())


class TestSampling:
    def test_unlit_patch_zero(self, mini_scene, sim_result):
        field = RadianceField(mini_scene, sim_result.forest)
        # Use an out-of-forest patch id lookup via empty forest path:
        empty = BinForest()
        empty.photons_emitted = 1
        empty.band_emitted = [1, 0, 0]
        f2 = RadianceField(mini_scene, empty)
        sample = f2.sample(0, 0.5, 0.5, Vec3(0, 1, 0))
        assert sample.rgb == (0.0, 0.0, 0.0)

    def test_floor_radiance_positive(self, mini_scene, sim_result):
        field = RadianceField(mini_scene, sim_result.forest)
        sample = field.sample(0, 0.5, 0.5, Vec3(0, 1, 0))
        assert max(sample.rgb) > 0.0
        assert sample.leaf_total > 0

    def test_sample_coords_equivalent(self, mini_scene, sim_result):
        field = RadianceField(mini_scene, sim_result.forest)
        patch = mini_scene.patch_by_id(0)
        from repro.core.radiance import local_frame_coords

        direction = Vec3(0.2, 0.9, 0.1).normalized()
        theta, r2 = local_frame_coords(direction, patch)
        a = field.sample(0, 0.3, 0.7, direction)
        b = field.sample_coords(0, BinCoords(0.3, 0.7, theta, r2))
        assert a.rgb == b.rgb


class TestEnergy:
    def test_total_flux_identity(self, mini_scene, sim_result):
        """Tallied flux = emitted power x (1 + mean bounces) exactly,
        because every tally represents one photon-departure and each
        band photon carries band_power / band_emitted."""
        field = RadianceField(mini_scene, sim_result.forest)
        flux = field.total_flux()
        power = sum(mini_scene.band_powers)
        expected = power * (
            sim_result.forest.total_tallies / sim_result.forest.photons_emitted
        )
        # Per-band photon weights differ slightly, so allow 2%.
        assert flux == pytest.approx(expected, rel=0.02)

    def test_exitance_below_lamp_output(self, mini_scene, sim_result):
        """No passive patch can exceed the lamp's own exitance."""
        field = RadianceField(mini_scene, sim_result.forest)
        lamp_id = next(
            p.patch_id for p in mini_scene.patches if p.material.is_emitter
        )
        lamp_exitance = sum(field.patch_exitance(lamp_id))
        for patch in mini_scene.patches:
            if patch.patch_id == lamp_id:
                continue
            assert sum(field.patch_exitance(patch.patch_id)) < lamp_exitance

    def test_patch_exitance_unlit_zero(self, mini_scene, sim_result):
        field = RadianceField(mini_scene, sim_result.forest)
        empty = BinForest()
        empty.photons_emitted = 1
        empty.band_emitted = [1, 1, 1]
        f2 = RadianceField(mini_scene, empty)
        assert f2.patch_exitance(0) == (0.0, 0.0, 0.0)

    def test_radiance_converges_with_photons(self, mini_scene):
        """More photons -> radiance estimate approaches the long-run
        value (weak convergence check on the floor's mean exitance)."""
        values = []
        for n in (1000, 8000):
            res = run_scalar(mini_scene, SimulationConfig(n_photons=n, seed=10))
            field = RadianceField(mini_scene, res.forest)
            values.append(sum(field.patch_exitance(0)))
        # Both estimates must agree within Monte Carlo tolerance.
        assert values[0] == pytest.approx(values[1], rel=0.25)


class TestLambertianRadiance:
    def test_diffuse_radiance_isotropic(self, mini_scene):
        """A Lambertian surface's radiance is direction-independent; the
        histogram estimate should agree across directions within noise."""
        res = run_scalar(
            mini_scene,
            SimulationConfig(
                n_photons=12000,
                policy=SplitPolicy(min_count=64, max_depth=4),
            ),
        )
        field = RadianceField(mini_scene, res.forest)
        d1 = Vec3(0.0, 1.0, 0.0)
        d2 = Vec3(0.6, 0.6, 0.0).normalized()
        s1 = sum(field.sample(0, 0.5, 0.5, d1).rgb)
        s2 = sum(field.sample(0, 0.5, 0.5, d2).rgb)
        assert s1 == pytest.approx(s2, rel=0.5)
