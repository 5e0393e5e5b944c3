"""Figures 5.9-5.11 — SGI Indy Cluster Speedup (1-8 workstations).

Published shape: "communication overhead and slower processors force the
initial time to the right and reduce performance.  Although performance
is lost, scalability is increased" — plus the superlinear 2-processor
result on the Harpsichord room, attributed to cache effects.
"""

from benchmarks.conftest import SPEEDUP_READ_TIME
from repro.paper.cluster import INDY_CLUSTER, POWER_ONYX, trace_family
from repro.paper.perf import ascii_traces, format_table, speedup_table

RANKS = [1, 2, 4, 8]


def run_families(profiles):
    return {
        name: trace_family(INDY_CLUSTER, profile, RANKS, duration_s=1200.0)
        for name, profile in profiles.items()
    }


def test_figs_5_9_to_5_11(profiles, benchmark):
    families = benchmark.pedantic(run_families, args=(profiles,), rounds=1, iterations=1)

    for fig, name in (("5.9", "cornell-box"), ("5.10", "harpsichord-room"), ("5.11", "computer-lab")):
        fam = families[name]
        table = speedup_table(fam, at_time=SPEEDUP_READ_TIME)
        print(f"\nFigure {fig} — Indy cluster speed trace ({name})")
        print(ascii_traces(fam, title=f"Indy cluster / {name}"))
        print(
            format_table(
                ["processors", "speedup@250s"],
                [[r, f"{s:.2f}"] for r, s in sorted(table.speedups.items())],
            )
        )

    # Startup (rsh launch + pilot trace over Ethernet) shifts every
    # parallel trace's first point right of the serial one.
    for fam in families.values():
        for ranks in (2, 4, 8):
            assert fam[ranks].samples[0].time > fam[1].samples[0].time

    # Absolute performance below the Power Onyx (slower CPUs + network)...
    onyx = trace_family(POWER_ONYX, profiles["cornell-box"], [1, 8], duration_s=320.0)
    indy = families["cornell-box"]
    assert indy[1].final_rate() < onyx[1].final_rate()
    # ...but scalability is higher on the message-passing machine.
    s_onyx = speedup_table(onyx, at_time=SPEEDUP_READ_TIME).speedups[8]
    s_indy = speedup_table(indy, at_time=SPEEDUP_READ_TIME).speedups[8]
    assert s_indy > s_onyx

    # Figure 5.10's superlinear 2-processor cache effect on the
    # Harpsichord room: at some point in the run, 2 workstations more
    # than double the serial rate.
    fam = families["harpsichord-room"]
    best = max(
        fam[2].rate_at(t) / max(fam[1].rate_at(t), 1e-9)
        for t in range(50, 1200, 25)
    )
    print(f"\nmax 2-processor speedup (harpsichord): {best:.2f} (superlinear)")
    assert best > 2.0

    # 8-node speedups land in the published 5.5-8 band for all scenes.
    for name, fam in families.items():
        s8 = speedup_table(fam, at_time=SPEEDUP_READ_TIME).speedups[8]
        assert 5.0 < s8 <= 8.2, (name, s8)
