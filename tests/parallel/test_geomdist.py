"""Geometry distribution with photon migration (chapter 6 extension)."""

import pytest

from repro.geometry import AABB, Vec3
from repro.paper.geomdist import (
    GeomDistConfig,
    RegionGrid,
    run_geometry_distributed,
    serial_reference_tallies,
)


class TestRegionGrid:
    def test_region_count(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(2, 2, 2)), divisions=2)
        assert grid.n_regions == 8

    def test_region_of_point(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(2, 2, 2)), divisions=2)
        assert grid.region_of_point(Vec3(0.5, 0.5, 0.5)) == 0
        assert grid.region_of_point(Vec3(1.5, 0.5, 0.5)) == 1
        assert grid.region_of_point(Vec3(1.5, 1.5, 1.5)) == 7

    def test_clamping_outside(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(2, 2, 2)), divisions=2)
        assert grid.region_of_point(Vec3(-5, -5, -5)) == 0
        assert grid.region_of_point(Vec3(9, 9, 9)) == 7

    def test_region_boxes_partition(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(2, 4, 6)), divisions=3)
        total = sum(grid.region_box(i).volume() for i in range(grid.n_regions))
        assert total == pytest.approx(2 * 4 * 6)

    def test_point_in_its_box(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(2, 2, 2)), divisions=4)
        p = Vec3(1.3, 0.2, 1.9)
        idx = grid.region_of_point(p)
        assert grid.region_box(idx).contains_point(p)

    def test_owner_round_robin(self):
        grid = RegionGrid(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)), divisions=2)
        owners = {grid.owner_of_region(i, 3) for i in range(8)}
        assert owners == {0, 1, 2}

    def test_bad_divisions(self):
        with pytest.raises(ValueError):
            RegionGrid(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)), divisions=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeomDistConfig(n_photons=-1)
        with pytest.raises(ValueError):
            GeomDistConfig(n_photons=10, divisions=0)


class TestCorrectness:
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_exact_match_with_serial_reference(self, mini_scene, ranks):
        """Per-patch tallies are *identical* to serially tracing the
        same per-photon streams: migration changes where work happens,
        never what happens."""
        cfg = GeomDistConfig(n_photons=250, divisions=2, seed=41)
        dist = run_geometry_distributed(mini_scene, cfg, ranks)
        ref = serial_reference_tallies(mini_scene, cfg)
        got = dist.tallies_per_patch()
        assert {k: v for k, v in got.items() if v} == {
            k: v for k, v in ref.items() if v
        }

    def test_finer_grid_same_answer(self, mini_scene):
        cfg2 = GeomDistConfig(n_photons=200, divisions=2, seed=42)
        cfg3 = GeomDistConfig(n_photons=200, divisions=3, seed=42)
        a = run_geometry_distributed(mini_scene, cfg2, 2).tallies_per_patch()
        b = run_geometry_distributed(mini_scene, cfg3, 2).tallies_per_patch()
        assert a == b

    def test_photon_conservation(self, mini_scene):
        cfg = GeomDistConfig(n_photons=300, divisions=2, seed=43)
        dist = run_geometry_distributed(mini_scene, cfg, 2)
        assert sum(r.photons_emitted for r in dist.ranks) == 300


class TestDistributionMetrics:
    def test_lab_geometry_actually_distributes(self, lab_small):
        """On a spatially spread scene each rank holds a strict subset
        of the geometry — the memory scaling chapter 6 is after."""
        cfg = GeomDistConfig(n_photons=60, divisions=2, seed=44)
        dist = run_geometry_distributed(lab_small, cfg, 4)
        assert dist.max_rank_patches() < dist.total_patches
        assert dist.replication_factor() < 4.0

    def test_migrations_happen(self, mini_scene):
        cfg = GeomDistConfig(n_photons=200, divisions=2, seed=45)
        dist = run_geometry_distributed(mini_scene, cfg, 2)
        assert dist.total_migrations() > 0

    def test_single_rank_no_migration_rounds_still_finish(self, mini_scene):
        cfg = GeomDistConfig(n_photons=100, divisions=2, seed=46)
        dist = run_geometry_distributed(mini_scene, cfg, 1)
        assert dist.ranks[0].photons_emitted == 100
