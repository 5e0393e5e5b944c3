#!/usr/bin/env python
"""Cluster study: run distributed Photon and regenerate the speedup story.

Combines the two halves of the reproduction:

1. a *real* distributed run (in-process MPI-style ranks) on the
   Harpsichord room, showing the Best-Fit load balance and the all-to-all
   photon exchange of Figure 5.3;
2. the era platform models (Power Onyx / Indy cluster / SP-2) replaying
   the paper's speed-vs-time traces, rendered as ASCII versions of
   Figures 5.6-5.15.

Run:
    python examples/cluster_study.py [--photons 2000] [--ranks 4]
"""

from __future__ import annotations

import argparse

from repro.paper.cluster import (
    INDY_CLUSTER,
    POWER_ONYX,
    SP2,
    profile_scene,
    trace_family,
)
from repro.paper.distributed import DistributedConfig, run_distributed
from repro.paper.loadbalance import load_imbalance
from repro.paper.perf import (
    ascii_traces,
    format_table,
    graph_of_graphs,
    speedup_table,
)
from repro.scenes import harpsichord_room


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, default=2000)
    parser.add_argument("--ranks", type=int, default=4)
    args = parser.parse_args()

    scene = harpsichord_room()

    # ---- Real distributed run -------------------------------------------
    print(f"distributed Photon: {args.ranks} ranks, {args.photons:,} photons")
    cfg = DistributedConfig(
        n_photons=args.photons, batch_size=400, pilot_photons=1000
    )
    dist = run_distributed(scene, cfg, args.ranks)
    rows = [
        [r.rank, r.photons_emitted, r.photons_processed, r.events_forwarded, len(r.owned_units)]
        for r in dist.ranks
    ]
    print(
        format_table(
            ["rank", "emitted", "processed", "forwarded", "units owned"], rows
        )
    )
    print(
        f"load imbalance (max/mean): "
        f"{load_imbalance(dist.processed_per_rank()):.3f} with Best-Fit packing"
    )
    dist.forest.check_invariants()

    # ---- Era platform traces ---------------------------------------------
    # Calibration on the paper's per-photon loop, as `repro trace` does.
    profile = profile_scene(scene, photons=250)
    print("\nscene profile:", profile)

    grid = {}
    for machine in (POWER_ONYX, SP2, INDY_CLUSTER):
        fam = trace_family(machine, profile, [1, 2, 4, 8], duration_s=320.0)
        grid[machine.name] = {"harpsichord": fam}
        table = speedup_table(fam, at_time=250.0)
        print(f"\n{machine.name} — speed trace (Harpsichord)")
        print(ascii_traces(fam))
        print(
            format_table(
                ["processors", "speedup@250s"],
                [[r, f"{s:.2f}"] for r, s in sorted(table.speedups.items())],
            )
        )

    print("\nGraph of graphs (Figure 5.15 layout, one scene column):")
    print(graph_of_graphs(grid))


if __name__ == "__main__":
    main()
