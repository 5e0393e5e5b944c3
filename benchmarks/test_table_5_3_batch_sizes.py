"""Table 5.3 — Simulation Batch Sizes.

Paper (8 processors, Harpsichord Practice Room; first 13 batches):

    SGI Power Onyx   IBM SP2   SGI Indy Cluster
    500              500       500
    750              750       750
    1125             675       1125
    ...grows         ...oscillates around an optimum...

The controller grows batch sizes x1.5 while throughput improves and cuts
10% on a slowdown.  On shared memory there is no communication penalty,
so sizes keep growing; on message-passing platforms buffer congestion
creates an optimum the controller oscillates around.
"""

from repro.paper.cluster.batch import AdaptiveBatchController
from repro.paper.cluster import INDY_CLUSTER, POWER_ONYX, SP2, simulate_trace
from repro.paper.perf import format_table

ROWS = 13


def run_controllers(profile):
    sequences = {}
    for machine in (POWER_ONYX, SP2, INDY_CLUSTER):
        ctrl = AdaptiveBatchController()
        simulate_trace(machine, profile, 8, duration_s=400.0, controller=ctrl)
        sequences[machine.name] = ctrl.sizes_used()[:ROWS]
    return sequences


def test_table_5_3(profiles, benchmark):
    profile = profiles["harpsichord-room"]
    sequences = benchmark.pedantic(run_controllers, args=(profile,), rounds=1, iterations=1)

    names = list(sequences)
    rows = [
        [sequences[n][i] if i < len(sequences[n]) else "" for n in names]
        for i in range(ROWS)
    ]
    print("\nTable 5.3 — Simulation Batch Sizes (8 ranks, Harpsichord)")
    print(format_table(names, rows))

    onyx = sequences[POWER_ONYX.name]
    indy = sequences[INDY_CLUSTER.name]
    sp2 = sequences[SP2.name]

    # All platforms start at the paper's 500 and grow x1.5 initially.
    for seq in (onyx, indy, sp2):
        assert seq[:3] == [500, 750, 1125]

    # Shared memory: monotone non-decreasing growth (no comm penalty),
    # matching the Onyx column's 500 -> 11337 progression.
    assert onyx == sorted(onyx)
    assert onyx[-1] > 2000

    # Message passing: at least one shrink happened and the sequence
    # settles (last entries equal) — the oscillation plateaus of the
    # published Indy/SP2 columns.
    for seq in (indy, sp2):
        assert any(b < a for a, b in zip(seq, seq[1:])), "expected a shrink"
        assert len(set(seq[-3:])) == 1, "expected a plateau"

    # The message-passing optima sit well below the shared-memory sizes.
    assert max(indy) < onyx[-1]
