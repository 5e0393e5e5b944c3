"""Adaptive batch-size controller (Table 5.3 dynamics)."""

import pytest

from repro.paper.cluster.batch import AdaptiveBatchController


class TestValidation:
    def test_bad_initial(self):
        with pytest.raises(ValueError):
            AdaptiveBatchController(initial=0)

    def test_bad_growth(self):
        with pytest.raises(ValueError):
            AdaptiveBatchController(growth=1.0)

    def test_bad_shrink(self):
        with pytest.raises(ValueError):
            AdaptiveBatchController(shrink=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchController(shrink=1.0)

    def test_negative_speed(self):
        c = AdaptiveBatchController()
        with pytest.raises(ValueError):
            c.observe(-1.0)


class TestGrowth:
    def test_paper_growth_prefix(self):
        """Monotonically improving speed replays Table 5.3's Onyx
        column prefix: 500, 750, 1125, 1688 (x1.5 growth)."""
        c = AdaptiveBatchController()
        sizes = []
        for speed in (100, 110, 120, 130):
            sizes.append(c.next_size())
            c.observe(speed)
        assert sizes == [500, 750, 1125, 1688]

    def test_shrink_is_ten_percent(self):
        """The published sequences cut 10% on a slowdown
        (1687 -> 1518 in Table 5.3)."""
        c = AdaptiveBatchController()
        for speed in (100, 110, 120, 130):
            c.observe(speed)
        size_before = c.next_size()
        c.observe(50)  # slowdown
        assert c.next_size() == pytest.approx(size_before * 0.9, abs=1)

    def test_growth_stops_after_first_shrink(self):
        """After overshooting, sizes oscillate instead of re-growing —
        the plateaus visible in every Table 5.3 column."""
        c = AdaptiveBatchController()
        for speed in (100, 110, 120, 50, 80, 90, 95):
            c.observe(speed)
        sizes = c.sizes_used()
        # after the shrink, no growth even though speed improved
        post = sizes[4:]
        assert all(s == post[0] for s in post)

    def test_floor(self):
        c = AdaptiveBatchController(initial=120, floor=100)
        c.observe(100)
        for _ in range(20):
            c.observe(1)  # repeated slowdowns
        assert c.next_size() >= 100

    def test_history_records_actions(self):
        c = AdaptiveBatchController()
        c.observe(100)
        c.observe(120)
        c.observe(20)
        actions = [d.action for d in c.history]
        assert actions == ["init", "grow", "shrink"]

    def test_hold_action_after_shrink(self):
        c = AdaptiveBatchController()
        c.observe(100)
        c.observe(20)
        c.observe(30)
        assert c.history[-1].action == "hold"
