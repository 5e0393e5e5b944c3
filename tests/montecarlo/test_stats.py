"""Split statistics and running moments."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.montecarlo.stats import (
    RunningMeanVar,
    normal_approximation_valid,
    should_split,
    split_statistic,
)

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


class TestNormalApproximation:
    def test_requires_samples(self):
        assert not normal_approximation_valid(0, 0)

    def test_balanced_large(self):
        assert normal_approximation_valid(50, 50)

    def test_skewed_small_fails(self):
        assert not normal_approximation_valid(99, 1)


class TestRunningMeanVar:
    def test_empty(self):
        acc = RunningMeanVar()
        assert acc.variance() == 0.0
        assert acc.standard_error() == 0.0

    def test_known_sequence(self):
        acc = RunningMeanVar()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            acc.add(x)
        assert acc.mean == pytest.approx(5.0)
        assert acc.variance() == pytest.approx(32.0 / 7.0)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=50))
    def test_matches_two_pass(self, xs):
        acc = RunningMeanVar()
        for x in xs:
            acc.add(x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert acc.mean == pytest.approx(mean, abs=1e-6)
        assert acc.variance() == pytest.approx(var, abs=1e-6)
