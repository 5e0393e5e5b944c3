"""Density Estimation baseline: storage and parallel-phase limits."""

import pytest

from repro.paper.densityestimation import (
    HIT_RECORD_BYTES,
    density_phase_speedup,
    run_density_estimation,
)


class TestPipeline:
    def test_hit_count_matches_tallies(self, mini_scene):
        res = run_density_estimation(mini_scene, 300, seed=1)
        assert res.total_hits == sum(res.hits_per_patch.values())
        assert res.total_hits >= 300  # emissions at minimum

    def test_hit_bytes_linear_in_photons(self, mini_scene):
        small = run_density_estimation(mini_scene, 200, seed=1)
        large = run_density_estimation(mini_scene, 800, seed=1)
        assert large.hit_bytes > 3 * small.hit_bytes
        assert small.hit_bytes == small.total_hits * HIT_RECORD_BYTES

    def test_disk_mode_roundtrip(self, mini_scene):
        mem = run_density_estimation(mini_scene, 200, seed=2, use_disk=False)
        disk = run_density_estimation(mini_scene, 200, seed=2, use_disk=True)
        try:
            assert disk.total_hits == mem.total_hits
            assert disk.hits_per_patch == mem.hits_per_patch
            assert disk.hit_file is not None
            assert disk.hit_file.stat().st_size == disk.hit_bytes
        finally:
            disk.hit_file.unlink()

    def test_irradiance_grids(self, mini_scene):
        res = run_density_estimation(mini_scene, 300, grid=4, seed=3)
        for h in res.irradiance.values():
            assert h.shape == (4, 4)
            assert (h >= 0).all()

    def test_mesh_polygons(self, mini_scene):
        res = run_density_estimation(mini_scene, 300, grid=4, seed=3)
        assert res.mesh_polygons() == len(res.irradiance) * 16

    def test_bad_args(self, mini_scene):
        with pytest.raises(ValueError):
            run_density_estimation(mini_scene, 0)
        with pytest.raises(ValueError):
            run_density_estimation(mini_scene, 10, grid=0)


class TestStorageContrast:
    def test_photon_forest_smaller_than_hit_file(self, mini_scene):
        """The paper's headline storage claim: histograms distil what
        the hit file stores verbatim.  At realistic photon counts the
        gap is 1-2 orders of magnitude; even at test scale the forest
        must win."""
        from repro.core import SimulationConfig
        from repro.paper.scalar import run_scalar

        n = 3000
        de = run_density_estimation(mini_scene, n, seed=4)
        res = run_scalar(mini_scene, SimulationConfig(n_photons=n, seed=4))
        assert res.forest.memory_bytes() < de.hit_bytes


class TestParallelPhase:
    def test_limited_by_largest_surface(self):
        hits = {0: 1000, 1: 10, 2: 10, 3: 10}
        s = density_phase_speedup(hits, processors=16)
        assert s == pytest.approx(1030 / 1000)

    def test_balanced_work_scales(self):
        hits = {i: 100 for i in range(32)}
        assert density_phase_speedup(hits, 16) == pytest.approx(16.0)

    def test_published_asymmetry(self, mini_scene):
        """Particle tracing is embarrassingly parallel (16/16); the
        density phase lags (paper: 8.5, worst case 4.5, on 16 procs)."""
        res = run_density_estimation(mini_scene, 2000, seed=5)
        s = density_phase_speedup(res.hits_per_patch, 16)
        assert s < 16.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            density_phase_speedup({}, 4)
        with pytest.raises(ValueError):
            density_phase_speedup({0: 1}, 0)
