"""The split statistic and the histogram's split decision."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.montecarlo.stats import split_statistic
from repro.paper.histogram import should_split

counts = st.integers(min_value=0, max_value=100_000)


class TestSplitStatistic:
    def test_even_split_is_zero(self):
        assert split_statistic(500, 500) == pytest.approx(0.0)

    def test_small_counts_zero(self):
        assert split_statistic(1, 0) == 0.0
        assert split_statistic(0, 0) == 0.0

    def test_one_sided_is_infinite(self):
        assert split_statistic(100, 0) == math.inf

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            split_statistic(-1, 5)

    def test_known_value(self):
        # n=100, big=60: p=0.6, sigma=sqrt(100*0.6*0.4)=4.899, (60-50)/4.899
        assert split_statistic(60, 40) == pytest.approx(10 / math.sqrt(24), rel=1e-12)

    @given(counts, counts)
    def test_symmetry(self, left, right):
        assert split_statistic(left, right) == split_statistic(right, left)

    @given(st.integers(min_value=10, max_value=10000))
    def test_monotone_in_imbalance(self, n):
        """For fixed total, a bigger majority is more significant."""
        total = 2 * n
        prev = -1.0
        for big in range(n, total + 1, max(n // 4, 1)):
            stat = split_statistic(big, total - big)
            assert stat >= prev - 1e-12
            prev = stat


class TestShouldSplit:
    def test_respects_min_count(self):
        assert not should_split(100, 0, min_count=200)

    def test_three_sigma_default(self):
        # 60/40 on 100 samples is ~2.04 sigma: below 3, no split.
        assert not should_split(60, 40)
        # 70/30 is ~4.36 sigma: split.
        assert should_split(70, 30)

    def test_threshold_parameter(self):
        assert should_split(60, 40, threshold=1.5)

    @given(counts, counts)
    def test_never_splits_tiny_bins(self, left, right):
        if left + right < 16:
            assert not should_split(left, right)
