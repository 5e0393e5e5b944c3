"""Speedup laws: Amdahl, Gustafson, Karp–Flatt."""

import pytest

from repro.paper.perf import (
    amdahl_speedup,
    gustafson_speedup,
    karp_flatt_metric,
    serial_fraction_from_speedup,
)


class TestAmdahl:
    def test_no_serial_part_is_ideal(self):
        assert amdahl_speedup(0.0, 64) == pytest.approx(64.0)

    def test_all_serial_is_one(self):
        assert amdahl_speedup(1.0, 64) == pytest.approx(1.0)

    def test_classic_bound(self):
        # 5% serial caps speedup below 20 regardless of P.
        assert amdahl_speedup(0.05, 10**6) < 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(-0.1, 4)
        with pytest.raises(ValueError):
            amdahl_speedup(0.5, 0)


class TestGustafson:
    def test_no_serial_part_is_ideal(self):
        assert gustafson_speedup(0.0, 64) == pytest.approx(64.0)

    def test_linear_in_processors(self):
        """Scaled speedup grows linearly — the regime Photon's traces
        live in, and why the paper reports fixed-time measurements."""
        s8 = gustafson_speedup(0.05, 8)
        s64 = gustafson_speedup(0.05, 64)
        assert s64 > 7 * s8 / 8 * 8 * 0.9  # near-linear growth

    def test_beats_amdahl_for_same_fraction(self):
        for p in (4, 16, 64):
            assert gustafson_speedup(0.1, p) > amdahl_speedup(0.1, p)

    def test_single_processor(self):
        assert gustafson_speedup(0.3, 1) == pytest.approx(1.0)


class TestInversion:
    def test_roundtrip(self):
        f = 0.08
        s = gustafson_speedup(f, 16)
        assert serial_fraction_from_speedup(s, 16) == pytest.approx(f)

    def test_validation(self):
        with pytest.raises(ValueError):
            serial_fraction_from_speedup(2.0, 1)
        with pytest.raises(ValueError):
            serial_fraction_from_speedup(10.0, 8)

    def test_sp2_effective_fraction_grows(self):
        """Reading the SP-2 model's measured speedups through
        Gustafson's law exposes the buffer-copy overhead as a *growing*
        effective serial fraction — overhead, not genuine serial code."""
        from repro.paper.cluster import SP2, profile_scene, trace_family
        from repro.paper.perf import speedup_table
        from tests.conftest import build_mini_scene

        profile = profile_scene(build_mini_scene(), photons=150)
        fam = trace_family(SP2, profile, [1, 2, 8], duration_s=200.0)
        table = speedup_table(fam, at_time=150.0).speedups
        f2 = serial_fraction_from_speedup(table[2], 2)
        f8 = serial_fraction_from_speedup(table[8], 8)
        assert f8 > f2


class TestKarpFlatt:
    def test_constant_for_true_serial_fraction(self):
        f = 0.1
        pairs = [(p, amdahl_speedup(f, p)) for p in (2, 4, 8, 16)]
        metrics = karp_flatt_metric(pairs)
        for e in metrics:
            assert e == pytest.approx(f, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            karp_flatt_metric([(1, 1.0)])
        with pytest.raises(ValueError):
            karp_flatt_metric([(4, 0.0)])
