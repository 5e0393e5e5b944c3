"""Discrete-event speed traces."""

import pytest

from repro.paper.cluster.batch import AdaptiveBatchController
from repro.paper.cluster import (
    INDY_CLUSTER,
    POWER_ONYX,
    SP2,
    platform_by_name,
    profile_scene,
    simulate_trace,
    trace_family,
)


@pytest.fixture(scope="module")
def profile(request):
    scene = request.getfixturevalue("mini_scene")
    return profile_scene(scene, photons=150)


class TestSimulateTrace:
    def test_time_monotone(self, profile):
        tr = simulate_trace(POWER_ONYX, profile, 4, duration_s=50.0)
        times = [s.time for s in tr.samples]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_photons_monotone(self, profile):
        tr = simulate_trace(SP2, profile, 8, duration_s=50.0)
        photons = [s.cumulative_photons for s in tr.samples]
        assert photons == sorted(photons)

    def test_ranks_out_of_range(self, profile):
        with pytest.raises(ValueError):
            simulate_trace(POWER_ONYX, profile, 16, duration_s=10.0)
        with pytest.raises(ValueError):
            simulate_trace(POWER_ONYX, profile, 0, duration_s=10.0)

    def test_bad_duration(self, profile):
        for duration in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                simulate_trace(POWER_ONYX, profile, 2, duration_s=duration)

    def test_bad_imbalance(self, profile):
        with pytest.raises(ValueError):
            simulate_trace(POWER_ONYX, profile, 2, duration_s=10.0, imbalance=0.9)

    def test_serial_has_no_startup(self, profile):
        serial = simulate_trace(INDY_CLUSTER, profile, 1, duration_s=20.0)
        parallel = simulate_trace(INDY_CLUSTER, profile, 4, duration_s=20.0)
        assert serial.samples[0].time < parallel.samples[0].time

    def test_controller_is_driven(self, profile):
        ctrl = AdaptiveBatchController()
        simulate_trace(INDY_CLUSTER, profile, 4, duration_s=30.0, controller=ctrl)
        assert len(ctrl.history) > 2
        assert ctrl.sizes_used()[0] == 500


class TestTraceQueries:
    def test_rate_at(self, profile):
        tr = simulate_trace(POWER_ONYX, profile, 2, duration_s=50.0)
        assert tr.rate_at(0.0) == 0.0
        mid = tr.samples[len(tr.samples) // 2]
        assert tr.rate_at(mid.time) == pytest.approx(mid.rate)

    def test_photons_within(self, profile):
        tr = simulate_trace(POWER_ONYX, profile, 2, duration_s=50.0)
        last = tr.samples[-1]
        assert tr.photons_within(last.time + 1) == last.cumulative_photons
        assert tr.photons_within(0.0) == 0

    def test_final_rate(self, profile):
        tr = simulate_trace(POWER_ONYX, profile, 2, duration_s=50.0)
        assert tr.final_rate() == tr.samples[-1].rate

    def test_empty_trace_rate(self, profile):
        from repro.paper.cluster.runner import SpeedTrace

        assert SpeedTrace("p", "s", 1).final_rate() == 0.0


class TestTraceFamily:
    def test_family_keys(self, profile):
        fam = trace_family(POWER_ONYX, profile, [1, 2, 4], duration_s=30.0)
        assert sorted(fam) == [1, 2, 4]
        assert all(fam[r].ranks == r for r in fam)

    def test_more_ranks_more_photons(self, profile):
        """At a late fixed time, more processors completed more photons."""
        fam = trace_family(SP2, profile, [1, 8], duration_s=100.0)
        assert fam[8].photons_within(90.0) > fam[1].photons_within(90.0)


class TestPlatformRegistry:
    def test_lookup(self):
        assert platform_by_name("sp2") is SP2

    def test_unknown(self):
        with pytest.raises(KeyError):
            platform_by_name("cray")
