"""Machine cost models: contention, communication, cache, startup."""

import pytest

from repro.paper.cluster import INDY_CLUSTER, POWER_ONYX, SP2, MachineSpec, profile_scene


@pytest.fixture(scope="module")
def profile(request):
    scene = request.getfixturevalue("mini_scene")
    return profile_scene(scene, photons=150)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MachineSpec(name="x", kind="quantum", max_ranks=4, seconds_per_work_unit=1e-6)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            MachineSpec(name="x", kind="shared", max_ranks=4, seconds_per_work_unit=0.0)

    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            MachineSpec(name="x", kind="shared", max_ranks=0, seconds_per_work_unit=1e-6)


class TestContention:
    def test_serial_no_contention(self, profile):
        assert POWER_ONYX.contention_factor(profile, 1) == 1.0

    def test_grows_with_ranks(self, profile):
        factors = [POWER_ONYX.contention_factor(profile, p) for p in (2, 4, 8)]
        assert factors == sorted(factors)
        assert factors[0] > 1.0

    def test_distributed_machines_have_none(self, profile):
        assert SP2.contention_factor(profile, 8) == 1.0
        assert INDY_CLUSTER.contention_factor(profile, 8) == 1.0

    def test_concentrated_scenes_contend_more(self, profile):
        """Higher tally concentration -> worse shared-memory scaling."""
        import dataclasses

        spread = dataclasses.replace(profile, concentration=0.02)
        hot = dataclasses.replace(profile, concentration=0.5)
        assert POWER_ONYX.contention_factor(hot, 8) > POWER_ONYX.contention_factor(
            spread, 8
        )


class TestCommunication:
    def test_shared_free(self, profile):
        assert POWER_ONYX.batch_comm_seconds(8, 1000) == 0.0

    def test_serial_free(self):
        assert SP2.batch_comm_seconds(1, 1000) == 0.0

    def test_monotone_in_events(self):
        a = SP2.batch_comm_seconds(8, 100)
        b = SP2.batch_comm_seconds(8, 10000)
        assert b > a

    def test_sp2_copy_hidden_at_two(self):
        """Per-rank comm cost at 2 ranks excludes the buffer copy; the
        2 -> 4 step therefore costs disproportionately (the published
        dip)."""
        events = 1000.0
        t2 = SP2.batch_comm_seconds(2, events)
        t4 = SP2.batch_comm_seconds(4, events)
        # More than 3x jump (1 -> 3 messages would be 3x if linear).
        assert t4 > 3.0 * t2

    def test_indy_latency_dominates_small_batches(self):
        t = INDY_CLUSTER.batch_comm_seconds(8, 10)
        assert t >= 7 * INDY_CLUSTER.latency_s

    def test_congestion_superlinear(self):
        """Oversized messages grow faster than linearly (batch optimum)."""
        base = INDY_CLUSTER.batch_comm_seconds(2, 1000)
        big = INDY_CLUSTER.batch_comm_seconds(2, 100_000)
        assert big > 100 * base * 0.5  # strictly superlinear territory


class TestCache:
    def test_no_bonus_when_fits_serially(self, profile):
        assert INDY_CLUSTER.cache_factor(profile, 2, 10) == 1.0

    def test_bonus_window(self, profile):
        """Bonus exactly when total exceeds cache but a share fits."""
        import dataclasses

        # Construct a profile whose forest at 9k photons is ~1.8x cache,
        # so the 2-rank share (0.9x) fits but the total does not.
        p = dataclasses.replace(
            profile,
            leaves_per_photon=INDY_CLUSTER.cache_bytes / (2.0 * 120) / 5000,
            calibration_photons=20000,
        )
        assert INDY_CLUSTER.cache_factor(p, 2, 9000) == INDY_CLUSTER.cache_bonus
        assert INDY_CLUSTER.cache_factor(p, 1, 9000) == 1.0

    def test_machines_without_bonus(self, profile):
        assert POWER_ONYX.cache_factor(profile, 8, 10**9) == 1.0


class TestStartup:
    def test_shared_cheap(self, profile):
        assert POWER_ONYX.startup_seconds(8, 2000, profile) == pytest.approx(
            8 * POWER_ONYX.startup_s_per_rank
        )

    def test_distributed_charges_pilot(self, profile):
        t = INDY_CLUSTER.startup_seconds(4, 2000, profile)
        assert t > 2000 * INDY_CLUSTER.photon_seconds(profile)

    def test_photon_seconds_positive(self, profile):
        for m in (POWER_ONYX, INDY_CLUSTER, SP2):
            assert m.photon_seconds(profile) > 0
