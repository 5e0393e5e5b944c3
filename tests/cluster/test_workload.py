"""Workload calibration profiles."""

import pytest

from repro.paper.cluster import SceneProfile, profile_scene


@pytest.fixture(scope="module")
def profile(request):
    scene = request.getfixturevalue("mini_scene")
    return profile_scene(scene, photons=200, seed=1)


class TestProfile:
    def test_fields_positive(self, profile):
        assert profile.events_per_photon >= 1.0  # at least the emission
        assert profile.nodes_per_photon > 0
        assert profile.tests_per_photon > 0
        assert profile.leaves_per_photon > 0

    def test_concentration_bounds(self, profile):
        assert 0.0 < profile.concentration <= 1.0

    def test_work_per_photon(self, profile):
        assert profile.work_per_photon() == pytest.approx(
            profile.nodes_per_photon + 3 * profile.tests_per_photon
        )

    def test_tally_share_bounds(self, profile):
        assert 0.0 < profile.tally_share() < 1.0

    def test_minimum_photons(self, mini_scene):
        with pytest.raises(ValueError):
            profile_scene(mini_scene, photons=5)

    def test_deterministic(self, mini_scene):
        a = profile_scene(mini_scene, photons=100, seed=9)
        b = profile_scene(mini_scene, photons=100, seed=9)
        assert a == b


class TestForestGrowth:
    def test_monotone(self, profile):
        sizes = [profile.forest_bytes_at(n) for n in (10, 100, 1000, 100000)]
        assert sizes == sorted(sizes)

    def test_sublinear_tail(self, profile):
        """Beyond calibration, doubling photons less-than-doubles bytes."""
        n = profile.calibration_photons * 50
        a = profile.forest_bytes_at(n)
        b = profile.forest_bytes_at(2 * n)
        assert b < 2 * a

    def test_linear_early(self, profile):
        n = profile.calibration_photons // 2
        assert profile.forest_bytes_at(n) == pytest.approx(
            (1.0 + profile.leaves_per_photon * n) * 2.0 * 120
        )


class TestSceneOrdering:
    def test_bigger_scene_more_work(self, mini_scene, cornell):
        """More polygons -> more intersection work per photon."""
        small = profile_scene(mini_scene, photons=150)
        big = profile_scene(cornell, photons=150)
        assert big.work_per_photon() > small.work_per_photon()
