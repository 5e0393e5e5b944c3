"""Adaptive histogramming (Figures 3.4/3.5): refinement follows gradient."""

import math

import pytest

from repro.paper.histogram import AdaptiveHistogram, FixedHistogram, l1_density_error
from repro.rng import Lcg48


def sample_exponentialish(rng: Lcg48) -> float:
    """A steep monotone density on [0,1): inverse-CDF of ~exp decay."""
    u = rng.uniform()
    x = -math.log(1 - u * (1 - math.exp(-5.0))) / 5.0
    return min(x, 0.999999)


class TestConstruction:
    def test_bad_domain(self):
        with pytest.raises(ValueError):
            AdaptiveHistogram(1.0, 1.0)

    def test_initial_single_leaf(self):
        h = AdaptiveHistogram(0.0, 1.0)
        assert len(h) == 1
        assert h.splits == 0


class TestInsertion:
    def test_out_of_domain_raises(self):
        h = AdaptiveHistogram(0.0, 1.0)
        with pytest.raises(ValueError):
            h.add(1.0)
        with pytest.raises(ValueError):
            h.add(-0.01)

    def test_counts_accumulate(self):
        h = AdaptiveHistogram(0.0, 1.0)
        h.add_many([0.1, 0.2, 0.9])
        assert h.total == 3

    def test_uniform_data_rarely_splits(self):
        """A uniform stream should trigger (almost) no splits at 3 sigma."""
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(5)
        h.add_many(rng.uniform() for _ in range(5000))
        # 3-sigma false-positive rate is 0.27% per test; allow a few.
        assert h.splits <= 4

    def test_skewed_data_splits(self):
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(5)
        h.add_many(sample_exponentialish(rng) for _ in range(5000))
        assert h.splits >= 3

    def test_refinement_where_gradient_is(self):
        """Leaves concentrate on the steep (left) side of the density."""
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(5)
        h.add_many(sample_exponentialish(rng) for _ in range(20000))
        left = [l for l in h.leaves() if l.hi <= 0.5]
        right = [l for l in h.leaves() if l.lo >= 0.5]
        assert len(left) > len(right)
        assert min(l.hi - l.lo for l in left) < min(l.hi - l.lo for l in right)

    def test_max_depth_cap(self):
        h = AdaptiveHistogram(0.0, 1.0, max_depth=2, min_count=4)
        rng = Lcg48(5)
        h.add_many(sample_exponentialish(rng) for _ in range(5000))
        assert all(l.depth <= 2 for l in h.leaves())

    def test_max_bins_cap(self):
        h = AdaptiveHistogram(0.0, 1.0, max_bins=4, min_count=4)
        rng = Lcg48(5)
        h.add_many(sample_exponentialish(rng) for _ in range(5000))
        assert len(h) <= 4


class TestQueries:
    def test_leaf_count_consistency(self):
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(6)
        h.add_many(sample_exponentialish(rng) for _ in range(3000))
        assert len(h.leaves()) == h.leaf_count

    def test_leaf_totals_cover_all_samples(self):
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(6)
        n = 3000
        h.add_many(sample_exponentialish(rng) for _ in range(n))
        assert sum(l.count for l in h.leaves()) == n

    def test_density_integrates_to_one(self):
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(6)
        h.add_many(sample_exponentialish(rng) for _ in range(5000))
        integral = sum(l.count / h.total for l in h.leaves())
        assert integral == pytest.approx(1.0)

    def test_density_positive_where_sampled(self):
        h = AdaptiveHistogram(0.0, 1.0)
        h.add(0.25)
        assert h.density(0.25) > 0.0

    def test_empty_density_zero(self):
        assert AdaptiveHistogram(0.0, 1.0).density(0.5) == 0.0

    def test_leaves_sorted(self):
        h = AdaptiveHistogram(0.0, 1.0)
        rng = Lcg48(6)
        h.add_many(sample_exponentialish(rng) for _ in range(5000))
        leaves = h.leaves()
        for a, b in zip(leaves, leaves[1:]):
            assert a.hi == pytest.approx(b.lo)


class TestAccuracyVsFixed:
    def test_adaptive_beats_fixed_at_equal_storage(self):
        """Same bin budget: adaptive places bins where the gradient is."""
        rng = Lcg48(11)
        samples = [sample_exponentialish(rng) for _ in range(40000)]
        adaptive = AdaptiveHistogram(0.0, 1.0)
        adaptive.add_many(samples)
        fixed = FixedHistogram(0.0, 1.0, bins=max(adaptive.leaf_count, 1))
        fixed.add_many(samples)

        norm = 5.0 / (1 - math.exp(-5.0))

        def pdf(x: float) -> float:
            return norm * math.exp(-5.0 * x)

        err_adaptive = l1_density_error(adaptive, pdf)
        err_fixed = l1_density_error(fixed, pdf)
        assert err_adaptive < err_fixed


class TestFixedHistogram:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            FixedHistogram(0, 1, 0)
        with pytest.raises(ValueError):
            FixedHistogram(1, 1, 4)

    def test_top_edge(self):
        h = FixedHistogram(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            h.add(1.0)

    def test_counts(self):
        h = FixedHistogram(0.0, 1.0, 2)
        h.add_many([0.1, 0.2, 0.8])
        assert h.counts == [2, 1]
