"""The split statistic and the histogram's split decision."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.montecarlo.stats import split_statistic, split_statistics
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


def _majorities(totals) -> tuple[np.ndarray, np.ndarray]:
    """Every (larger count, total) pair with ``total / 2 <= big <= total``."""
    big = [np.arange((n + 1) // 2, n + 1) for n in totals]
    total = [np.full(b.size, n) for n, b in zip(totals, big)]
    return np.concatenate(big), np.concatenate(total)


class TestOneStatisticPerRow:
    """At a fixed total the split statistic strictly increases with the
    larger daughter count.  That is what lets the one-pass tally score one
    statistic per row, on its largest count over the four axes: the peak
    over the axes, the trigger row and the first-max axis stay the same.
    The chain the tally runs equals ``split_statistic`` element for
    element, so what holds for one holds for the other."""

    def test_strictly_increasing_for_every_total_to_4096(self):
        for first in range(2, 4097, 512):
            totals = range(first, min(first + 512, 4097))
            big, total = _majorities(totals)
            stats = split_statistics(big, total)
            rising = np.diff(stats) > 0
            # Pairs that straddle two totals are not compared.
            heads = np.cumsum([(n + 2) // 2 for n in totals])[:-1] - 1
            rising[heads] = True
            assert rising.all(), (big[:-1][~rising], total[:-1][~rising])

    def test_chain_equals_the_scalar_for_every_total_to_4096(self):
        for first in range(2, 4097, 512):
            big, total = _majorities(range(first, min(first + 512, 4097)))
            scalar = list(map(split_statistic, big.tolist(), (total - big).tolist()))
            assert split_statistics(big, total).tolist() == scalar

    @given(st.data())
    def test_adjacent_counts_up_to_2_to_the_40(self, data):
        total = data.draw(st.integers(min_value=2, max_value=2**40))
        big = data.draw(st.integers(min_value=(total + 1) // 2, max_value=total - 1))
        lower = split_statistic(big, total - big)
        upper = split_statistic(big + 1, total - big - 1)
        assert lower < upper
        chain = split_statistics(np.array([big, big + 1]), np.array([total, total]))
        assert chain.tolist() == [lower, upper]

    def test_one_sided_and_even_bins(self):
        chain = split_statistics(np.array([5, 4, 3]), np.array([5, 8, 6]))
        assert chain.tolist() == [math.inf, 0.0, 0.0]


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
