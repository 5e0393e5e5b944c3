"""Table 5.2 — Total Photons Processed: Naive vs Bin Packing.

Paper (Harpsichord Practice Room, 8 processors; thousands of photons):

    Processor   Naive    Bin Packing
    0            47.9           29.4
    1            34.5           28.9
    ...          ...            ...
    max/mean     ~1.43          ~1.02

The shape to reproduce: Best-Fit bin packing flattens the per-processor
photon counts that naive geometric assignment leaves badly skewed.
"""

from repro.paper.distributed import DistributedConfig, run_distributed
from repro.paper.loadbalance import load_imbalance
from repro.paper.perf import format_table

RANKS = 8
PHOTONS = 3200


def run_both(scene):
    results = {}
    for method in ("naive", "best-fit"):
        cfg = DistributedConfig(
            n_photons=PHOTONS,
            batch_size=400,
            pilot_photons=3000,
            granularity=24,
            balance=method,
            seed=21,
        )
        results[method] = run_distributed(scene, cfg, RANKS)
    return results


def test_table_5_2(scenes, benchmark):
    scene = scenes["harpsichord-room"]
    results = benchmark.pedantic(run_both, args=(scene,), rounds=1, iterations=1)

    naive = results["naive"].processed_per_rank()
    packed = results["best-fit"].processed_per_rank()
    rows = [
        [rank, naive[rank], packed[rank]] for rank in range(RANKS)
    ]
    rows.append(["max/mean", f"{load_imbalance(naive):.3f}", f"{load_imbalance(packed):.3f}"])
    print("\nTable 5.2 — Photons Processed per Processor (Harpsichord, 8 ranks)")
    print(format_table(["processor", "naive", "bin packing"], rows))

    # Shape assertions: packing beats naive, and approaches the paper's
    # near-perfect balance (paper: ~1.02 vs ~1.43).
    assert load_imbalance(packed) < load_imbalance(naive)
    assert load_imbalance(packed) < 1.2
    assert load_imbalance(naive) > 1.3
    # Work is conserved: both schemes process every tally event once.
    assert sum(naive) == results["naive"].forest.total_tallies
    assert sum(packed) == results["best-fit"].forest.total_tallies
