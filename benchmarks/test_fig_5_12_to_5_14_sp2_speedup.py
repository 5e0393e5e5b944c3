"""Figures 5.12-5.14 — IBM SP-2 Speedup (1-64 nodes).

Published shape: near-ideal 2-node speedup, then "the reduced scaling
between 2 and 4 processors" — buffered asynchronous messaging adds a
memory copy per message that overlaps with computation at 2 nodes but
not beyond, shifting absolute performance down — after which
"performance after the shift appears to scale well".  Right-axis
readings put 64-node speedups in the ~16-32+ band.
"""

from benchmarks.conftest import SPEEDUP_READ_TIME
from repro.paper.cluster import SP2, trace_family
from repro.paper.perf import ascii_traces, format_table, speedup_table

RANKS = [1, 2, 4, 8, 16, 32, 64]


def run_families(profiles):
    return {
        name: trace_family(SP2, profile, RANKS, duration_s=320.0)
        for name, profile in profiles.items()
    }


def test_figs_5_12_to_5_14(profiles, benchmark):
    families = benchmark.pedantic(run_families, args=(profiles,), rounds=1, iterations=1)

    tables = {}
    for fig, name in (("5.12", "cornell-box"), ("5.13", "harpsichord-room"), ("5.14", "computer-lab")):
        fam = families[name]
        tables[name] = speedup_table(fam, at_time=SPEEDUP_READ_TIME).speedups
        print(f"\nFigure {fig} — SP-2 speed trace ({name})")
        print(ascii_traces(fam, title=f"IBM SP-2 / {name}"))
        print(
            format_table(
                ["processors", "speedup@250s"],
                [[r, f"{s:.2f}"] for r, s in sorted(tables[name].items())],
            )
        )

    for name, s in tables.items():
        # Near-ideal at 2 nodes (copy overhead hidden by overlap).
        assert s[2] > 1.8, name
        # The 2 -> 4 dip: 4 nodes deliver well under 2x the 2-node rate.
        assert s[4] < 1.5 * s[2], name
        # Beyond the shift, each doubling delivers ~2x again.
        assert s[16] > 1.8 * s[8], name
        assert s[32] > 1.8 * s[16], name
        assert s[64] > 1.8 * s[32], name
        # 64-node speedup in the published band, far below ideal.
        assert 16.0 < s[64] < 48.0, (name, s[64])
