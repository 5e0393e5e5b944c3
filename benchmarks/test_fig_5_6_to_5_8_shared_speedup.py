"""Figures 5.6-5.8 — Shared-Memory Speedup (SGI Power Onyx, 1-8 CPUs).

Published shape: "As the geometry size increases, so also does the
scalability.  For small geometries, using more than two processors is a
waste. ... as the geometry size increases, the scalability increases,
but the absolute performance is reduced."

Right-axis readings: Cornell saturates near speedup ~2, the Harpsichord
room near ~3, and the Computer Laboratory keeps scaling toward ~6-8.
"""

from benchmarks.conftest import SPEEDUP_READ_TIME
from repro.paper.cluster import POWER_ONYX, trace_family
from repro.paper.perf import ascii_traces, format_table, speedup_table

RANKS = [1, 2, 4, 8]


def run_families(profiles):
    return {
        name: trace_family(POWER_ONYX, profile, RANKS, duration_s=320.0)
        for name, profile in profiles.items()
    }


def test_figs_5_6_to_5_8(profiles, benchmark):
    families = benchmark.pedantic(run_families, args=(profiles,), rounds=1, iterations=1)

    tables = {}
    for fig, name in (("5.6", "cornell-box"), ("5.7", "harpsichord-room"), ("5.8", "computer-lab")):
        fam = families[name]
        tables[name] = speedup_table(fam, at_time=SPEEDUP_READ_TIME)
        print(f"\nFigure {fig} — Shared-memory speed trace ({name})")
        print(ascii_traces(fam, title=f"Power Onyx / {name}"))
        print(
            format_table(
                ["processors", "speedup@250s"],
                [[r, f"{s:.2f}"] for r, s in sorted(tables[name].speedups.items())],
            )
        )

    s = {name: tables[name].speedups for name in tables}

    # Scalability ordering follows scene size.
    assert s["cornell-box"][8] < s["harpsichord-room"][8] < s["computer-lab"][8]

    # Cornell: >2 processors is "a waste" (8 CPUs gain < 2x over 2).
    assert s["cornell-box"][8] < 2 * s["cornell-box"][2]

    # The lab keeps scaling: 8 CPUs clearly beat 4.
    assert s["computer-lab"][8] > 1.4 * s["computer-lab"][4]

    # Absolute performance drops with complexity.
    assert (
        families["computer-lab"][1].final_rate()
        < families["cornell-box"][1].final_rate()
    )

    # Speedups are monotone in processor count everywhere.
    for table in tables.values():
        assert table.monotone_nondecreasing(tolerance=0.05)
