"""Speedup extraction on synthetic traces."""

import pytest

from repro.paper.cluster.runner import SpeedSample, SpeedTrace
from repro.paper.perf import (
    fixed_size_speedup,
    fixed_time_speedup,
    speedup_table,
)


def make_trace(ranks: int, rate: float, start: float = 1.0, batches: int = 10) -> SpeedTrace:
    tr = SpeedTrace(platform="test", scene="synthetic", ranks=ranks)
    t = start
    photons = 0
    for _ in range(batches):
        t += 10.0
        photons += int(rate * 10.0)
        tr.samples.append(SpeedSample(time=t, rate=rate, cumulative_photons=photons))
    return tr


class TestFixedTime:
    def test_simple_ratio(self):
        serial = make_trace(1, 100.0)
        parallel = make_trace(4, 350.0)
        assert fixed_time_speedup(parallel, serial, 50.0) == pytest.approx(3.5)

    def test_before_parallel_start_is_zero(self):
        serial = make_trace(1, 100.0, start=0.0)
        parallel = make_trace(4, 350.0, start=60.0)
        assert fixed_time_speedup(parallel, serial, 30.0) == 0.0

    def test_bad_time(self):
        serial = make_trace(1, 100.0)
        for at_time in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                fixed_time_speedup(serial, serial, at_time)

    def test_empty_serial_raises(self):
        serial = SpeedTrace("p", "s", 1)
        parallel = make_trace(2, 10.0)
        with pytest.raises(ValueError):
            fixed_time_speedup(parallel, serial, 10.0)


class TestFixedSize:
    def test_time_ratio(self):
        serial = make_trace(1, 100.0, batches=100)
        parallel = make_trace(4, 400.0, batches=100)
        s = fixed_size_speedup(parallel, serial, photons=4000)
        assert s == pytest.approx(4.0, rel=0.15)

    def test_budget_too_big(self):
        serial = make_trace(1, 100.0, batches=2)
        with pytest.raises(ValueError):
            fixed_size_speedup(serial, serial, photons=10**9)

    def test_bad_photons(self):
        serial = make_trace(1, 100.0)
        with pytest.raises(ValueError):
            fixed_size_speedup(serial, serial, photons=0)


class TestSpeedupTable:
    def test_requires_serial(self):
        with pytest.raises(ValueError):
            speedup_table({2: make_trace(2, 10.0)}, at_time=10.0)

    def test_table_values(self):
        traces = {
            1: make_trace(1, 100.0),
            2: make_trace(2, 190.0),
            4: make_trace(4, 360.0),
        }
        table = speedup_table(traces, at_time=50.0)
        assert table.speedups[1] == pytest.approx(1.0)
        assert table.speedups[2] == pytest.approx(1.9)
        assert table.speedups[4] == pytest.approx(3.6)

    def test_monotone_check(self):
        traces = {
            1: make_trace(1, 100.0),
            2: make_trace(2, 190.0),
            4: make_trace(4, 150.0),
        }
        table = speedup_table(traces, at_time=50.0)
        assert not table.monotone_nondecreasing()
        assert table.monotone_nondecreasing(tolerance=0.5)
