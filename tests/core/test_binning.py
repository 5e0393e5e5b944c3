"""4-D bins: speculative tallies, split apportionment, axis choice."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binning import TWO_PI, BinCoords, BinNode
from repro.rng import Lcg48

ROOT_LO = (0.0, 0.0, 0.0, 0.0)
ROOT_HI = (1.0, 1.0, TWO_PI, 1.0)

unit = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
coords_strategy = st.builds(
    BinCoords,
    s=unit,
    t=unit,
    theta=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, allow_nan=False),
    r_squared=unit,
)


def fresh_node() -> BinNode:
    return BinNode(ROOT_LO, ROOT_HI)


class TestBinCoords:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinCoords(-0.1, 0.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            BinCoords(0.5, 1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            BinCoords(0.5, 0.5, 7.0, 0.5)
        with pytest.raises(ValueError):
            BinCoords(0.5, 0.5, 1.0, 1.5)

    def test_axis_value(self):
        c = BinCoords(0.1, 0.2, 0.3, 0.4)
        assert [c.axis_value(i) for i in range(4)] == [0.1, 0.2, 0.3, 0.4]
        with pytest.raises(IndexError):
            c.axis_value(4)


class TestTally:
    def test_speculative_counts(self):
        node = fresh_node()
        node.tally(BinCoords(0.1, 0.9, 1.0, 0.2), band=0)
        assert node.total == 1
        assert node.counts == [1, 0, 0]
        assert node.low_counts == [1, 0, 1, 1]  # s low, t high, theta low, r2 low

    def test_contains(self):
        node = fresh_node()
        assert node.contains(BinCoords(0.5, 0.5, 1.0, 0.5))

    @given(st.lists(coords_strategy, min_size=1, max_size=60))
    def test_low_counts_bounded_by_total(self, samples):
        node = fresh_node()
        for c in samples:
            node.tally(c, band=0)
        assert node.total == len(samples)
        for axis in range(4):
            assert 0 <= node.low_counts[axis] <= node.total


class TestSplit:
    def test_split_regions(self):
        node = fresh_node()
        node.split(0)
        assert node.low_child.hi[0] == pytest.approx(0.5)
        assert node.high_child.lo[0] == pytest.approx(0.5)
        # other axes untouched
        assert node.low_child.hi[2] == pytest.approx(TWO_PI)

    def test_split_paths(self):
        node = fresh_node()
        node.split(2)
        assert node.low_child.path == ((2, 0),)
        assert node.high_child.path == ((2, 1),)

    def test_double_split_raises(self):
        node = fresh_node()
        node.split(1)
        with pytest.raises(ValueError):
            node.split(1)

    def test_child_for(self):
        node = fresh_node()
        node.split(3)
        low = node.child_for(BinCoords(0.5, 0.5, 1.0, 0.2))
        high = node.child_for(BinCoords(0.5, 0.5, 1.0, 0.8))
        assert low is node.low_child
        assert high is node.high_child

    def test_child_for_leaf_raises(self):
        with pytest.raises(ValueError):
            fresh_node().child_for(BinCoords(0.5, 0.5, 1.0, 0.5))

    @given(st.lists(coords_strategy, min_size=4, max_size=80), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_split_conserves_counts(self, samples, axis):
        """Daughters' totals and band counts sum exactly to the parent's."""
        node = fresh_node()
        rng = Lcg48(1)
        for c in samples:
            node.tally(c, band=rng.randint(3))
        before_counts = list(node.counts)
        before_total = node.total
        node.split(axis)
        low, high = node.low_child, node.high_child
        assert low.total + high.total == before_total
        assert low.total == node.low_counts[axis]
        for b in range(3):
            assert low.counts[b] + high.counts[b] == before_counts[b]
            assert low.counts[b] >= 0 and high.counts[b] >= 0

    def test_measures(self):
        node = fresh_node()
        assert node.parameter_area() == pytest.approx(1.0)
        assert node.projected_solid_angle() == pytest.approx(math.pi)
        node.split(3)
        assert node.low_child.projected_solid_angle() == pytest.approx(math.pi / 2)


class TestAxisSelection:
    def test_prefers_skewed_axis(self):
        """Samples split unevenly in t only: t must win the axis vote."""
        node = fresh_node()
        rng = Lcg48(2)
        for _ in range(500):
            # uniform in s/theta/r2, concentrated low in t.
            node.tally(
                BinCoords(rng.uniform(), rng.uniform() * 0.3, rng.uniform() * TWO_PI * 0.999, rng.uniform()),
                band=0,
            )
        axis, stat = node.best_split_axis()
        assert axis == 1
        assert stat > 3.0

    def test_uniform_no_significant_axis(self):
        node = fresh_node()
        rng = Lcg48(3)
        for _ in range(500):
            node.tally(
                BinCoords(
                    rng.uniform(),
                    rng.uniform(),
                    rng.uniform() * TWO_PI * 0.999,
                    rng.uniform(),
                ),
                band=0,
            )
        _, stat = node.best_split_axis()
        assert stat < 3.5  # occasionally near threshold, never huge

    def test_r_squared_splits_lambertian_evenly(self):
        """The squared-radius parameterisation halves a cosine lobe —
        chapter 4's justification for splitting r^2 rather than the
        elevation angle."""
        from repro.paper.physics import direction_rejection

        node = fresh_node()
        rng = Lcg48(4)
        n = 4000
        for _ in range(n):
            x, y, z = direction_rejection(rng)
            theta = math.atan2(y, x)
            if theta < 0:
                theta += TWO_PI
            node.tally(
                BinCoords(0.5, 0.5, theta, min(x * x + y * y, 0.999999)), band=0
            )
        low = node.low_counts[3]
        assert low / n == pytest.approx(0.5, abs=0.025)
        # Elevation-angle split (at 45 deg = r^2 0.5 boundary differs):
        # the r^2 = 0.5 boundary corresponds to theta_e = 45 deg but a
        # *solid-angle* halving would put only ~29% below it; the point
        # is r^2 halves the *distribution*, which we just asserted.
