"""The published speedup shapes, as cheap analytic assertions.

These are the core qualitative claims of chapter 5; the benchmark
harness prints the full traces, these tests pin the shapes so a code
change that breaks a published trend fails fast.
"""

import pytest

from repro.paper.cluster import (
    INDY_CLUSTER,
    POWER_ONYX,
    SP2,
    profile_scene,
    trace_family,
)
from repro.paper.perf import speedup_table
from repro.scenes import computer_lab, cornell_box, harpsichord_room


@pytest.fixture(scope="module")
def profiles():
    return {
        "cornell": profile_scene(cornell_box(), photons=250),
        "harpsichord": profile_scene(harpsichord_room(), photons=250),
        "lab": profile_scene(computer_lab(), photons=250),
    }


class TestPowerOnyxShapes:
    """Figures 5.6-5.8: scalability rises with scene size; absolute
    performance falls."""

    def test_scalability_ordering(self, profiles):
        speedups = {}
        for name, p in profiles.items():
            fam = trace_family(POWER_ONYX, p, [1, 8], duration_s=300.0)
            speedups[name] = speedup_table(fam, at_time=250.0).speedups[8]
        assert speedups["cornell"] < speedups["harpsichord"] < speedups["lab"]

    def test_small_scene_two_proc_plateau(self, profiles):
        """'For small geometries, using more than two processors is a
        waste': 8 procs gain little over 2 on the Cornell box."""
        fam = trace_family(POWER_ONYX, profiles["cornell"], [1, 2, 8], duration_s=300.0)
        table = speedup_table(fam, at_time=250.0).speedups
        assert table[8] < 2 * table[2]

    def test_absolute_rate_drops_with_complexity(self, profiles):
        r_cornell = trace_family(POWER_ONYX, profiles["cornell"], [1], duration_s=60.0)[1].final_rate()
        r_lab = trace_family(POWER_ONYX, profiles["lab"], [1], duration_s=60.0)[1].final_rate()
        assert r_lab < r_cornell


class TestIndyShapes:
    """Figures 5.9-5.11: startup shift, good distributed scaling,
    superlinear 2-processor cache effect on the Harpsichord room."""

    def test_startup_shifts_first_point_right(self, profiles):
        fam = trace_family(INDY_CLUSTER, profiles["harpsichord"], [1, 8], duration_s=100.0)
        assert fam[8].samples[0].time > fam[1].samples[0].time

    def test_distributed_beats_shared_at_scale(self, profiles):
        """Removing memory contention improves scalability (ch. 5)."""
        onyx = trace_family(POWER_ONYX, profiles["cornell"], [1, 8], duration_s=400.0)
        indy = trace_family(INDY_CLUSTER, profiles["cornell"], [1, 8], duration_s=400.0)
        s_onyx = speedup_table(onyx, at_time=350.0).speedups[8]
        s_indy = speedup_table(indy, at_time=350.0).speedups[8]
        assert s_indy > s_onyx

    def test_harpsichord_superlinear_two_procs(self, profiles):
        """The cache effect: somewhere in the run, 2 processors exceed
        2x the serial rate."""
        fam = trace_family(INDY_CLUSTER, profiles["harpsichord"], [1, 2], duration_s=1200.0)
        best = max(
            fam[2].rate_at(t) / max(fam[1].rate_at(t), 1e-9)
            for t in range(50, 1200, 25)
        )
        assert best > 2.0


class TestSP2Shapes:
    """Figures 5.12-5.14: the 2 -> 4 dip, then good scaling to 64."""

    def test_two_to_four_dip(self, profiles):
        fam = trace_family(SP2, profiles["cornell"], [1, 2, 4], duration_s=300.0)
        table = speedup_table(fam, at_time=250.0).speedups
        # 2 ranks is near-ideal; 4 is visibly below 2x of that.
        assert table[2] > 1.8
        assert table[4] < 1.5 * table[2]

    def test_scales_beyond_the_shift(self, profiles):
        fam = trace_family(SP2, profiles["cornell"], [1, 8, 16, 32, 64], duration_s=300.0)
        table = speedup_table(fam, at_time=250.0).speedups
        assert table[16] > 1.8 * table[8]
        assert table[32] > 1.8 * table[16]
        assert table[64] > 1.8 * table[32]

    def test_sixty_four_in_published_band(self, profiles):
        """Right-axis readings of Figs. 5.12-5.14 put 64-processor
        speedup in the 16-48 band, far below ideal."""
        fam = trace_family(SP2, profiles["cornell"], [1, 64], duration_s=300.0)
        s = speedup_table(fam, at_time=250.0).speedups[64]
        assert 16.0 < s < 48.0
