"""Load balancing: pilot determinism, ownership map, Best-Fit packing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binning import TWO_PI, BinCoords
from repro.paper.loadbalance import (
    OwnershipMap,
    assign_units,
    load_imbalance,
    pilot_counts,
    pilot_forest,
)

unit = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
coords_strategy = st.builds(
    BinCoords,
    s=unit,
    t=unit,
    theta=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, allow_nan=False),
    r_squared=unit,
)


@pytest.fixture(scope="module")
def pilot(request):
    scene = request.getfixturevalue("mini_scene")
    return pilot_forest(scene, k=800, seed=99)


@pytest.fixture(scope="module")
def mapping(request, pilot):
    scene = request.getfixturevalue("mini_scene")
    return OwnershipMap.from_pilot(scene, pilot, n_ranks=4)


class TestPilot:
    def test_deterministic(self, mini_scene):
        a = pilot_forest(mini_scene, k=300, seed=5)
        b = pilot_forest(mini_scene, k=300, seed=5)
        assert a.total_tallies == b.total_tallies
        assert a.tallies_per_patch() == b.tallies_per_patch()

    def test_bad_k(self, mini_scene):
        with pytest.raises(ValueError):
            pilot_forest(mini_scene, k=0)

    def test_counts_cover_all_patches(self, mini_scene):
        counts = pilot_counts(mini_scene, k=300)
        assert set(counts) == set(range(len(mini_scene.patches)))


class TestOwnershipMap:
    def test_every_patch_has_units(self, mini_scene, mapping):
        patches_with_units = {u.patch_id for u in mapping.units}
        assert patches_with_units == set(range(len(mini_scene.patches)))

    def test_enough_units_for_ranks(self, mapping):
        assert mapping.n_units >= 4

    def test_unit_regions_valid(self, mapping):
        for u in mapping.units:
            for axis in range(4):
                assert u.lo[axis] < u.hi[axis]

    @settings(max_examples=200, deadline=None)
    @given(coords_strategy, st.integers(min_value=0, max_value=7))
    def test_unit_lookup_total(self, mapping, coords, patch_id):
        """Every coordinate on every patch maps to exactly one unit whose
        region contains it."""
        unit_id = mapping.unit_of(patch_id, coords)
        info = mapping.units[unit_id]
        assert info.patch_id == patch_id
        lo, hi = mapping.unit_region(unit_id)
        for axis in range(4):
            assert lo[axis] - 1e-12 <= coords.axis_value(axis) <= hi[axis] + 1e-12

    def test_oversized_units_refined(self, mini_scene, pilot):
        """No unit's estimated load exceeds the refinement target by 2x."""
        mapping = OwnershipMap.from_pilot(mini_scene, pilot, n_ranks=4, granularity=8)
        target = pilot.total_tallies / (4 * 8)
        for u in mapping.units:
            assert u.estimated_count <= 2 * target + 1

    def test_bad_args(self, mini_scene, pilot):
        with pytest.raises(ValueError):
            OwnershipMap.from_pilot(mini_scene, pilot, n_ranks=0)
        with pytest.raises(ValueError):
            OwnershipMap.from_pilot(mini_scene, pilot, n_ranks=2, granularity=0)

    def test_deterministic(self, mini_scene, pilot):
        m1 = OwnershipMap.from_pilot(mini_scene, pilot, n_ranks=4)
        m2 = OwnershipMap.from_pilot(mini_scene, pilot, n_ranks=4)
        assert [u.unit_id for u in m1.units] == [u.unit_id for u in m2.units]
        assert [u.lo for u in m1.units] == [u.lo for u in m2.units]


class TestAssignment:
    def test_best_fit_balances(self, mapping):
        a = assign_units(mapping, 4, "best-fit")
        assert load_imbalance(a.predicted_load) < 1.3

    def test_best_fit_beats_naive(self, mapping):
        """Table 5.2's point, at assignment level."""
        bf = assign_units(mapping, 4, "best-fit")
        nv = assign_units(mapping, 4, "naive")
        assert load_imbalance(bf.predicted_load) <= load_imbalance(nv.predicted_load)

    def test_every_unit_assigned(self, mapping):
        a = assign_units(mapping, 3, "best-fit")
        assert len(a.owner) == mapping.n_units
        assert set(a.owner) <= {0, 1, 2}

    def test_units_of_partition(self, mapping):
        a = assign_units(mapping, 3, "best-fit")
        all_units = sorted(u for r in range(3) for u in a.units_of(r))
        assert all_units == list(range(mapping.n_units))

    def test_unknown_method(self, mapping):
        with pytest.raises(ValueError):
            assign_units(mapping, 2, "magic")

    def test_bad_ranks(self, mapping):
        with pytest.raises(ValueError):
            assign_units(mapping, 0, "naive")

    def test_deterministic(self, mapping):
        a = assign_units(mapping, 4, "best-fit")
        b = assign_units(mapping, 4, "best-fit")
        assert a.owner == b.owner


class TestImbalance:
    def test_perfect(self):
        assert load_imbalance([10, 10, 10]) == pytest.approx(1.0)

    def test_skewed(self):
        assert load_imbalance([30, 10, 20]) == pytest.approx(1.5)

    def test_zero_loads(self):
        assert load_imbalance([0, 0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            load_imbalance([])
