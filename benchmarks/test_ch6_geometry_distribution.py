"""Chapter 6 — geometry distribution (the massive-parallelism proposal).

"Distribution of the geometry would allow computation of a global
illumination solution for very complex scenes. ... photons can then be
queued and sent in a batch to the appropriate processors, thus reducing
communication overhead.  A bounding box data structure would require all
processors to calculate intersection points ... a global reduction
operation for each photon, which is far too expensive."

Measured here on the Computer Laboratory:

* per-rank geometry memory shrinks versus full replication (the whole
  point of the proposal);
* the migration protocol's answer matches the serial reference exactly;
* the octree-style region hand-off forwards each photon to a *few*
  owners, versus the P-ranks-per-photon broadcast a bounding-box scheme
  would need.
"""

from repro.paper.geomdist import (
    GeomDistConfig,
    run_geometry_distributed,
    serial_reference_tallies,
)
from repro.paper.perf import format_table
from repro.scenes import computer_lab

RANKS = 4
PHOTONS = 250


def run_study():
    scene = computer_lab(workstations=8)  # spatially spread geometry
    cfg = GeomDistConfig(n_photons=PHOTONS, divisions=2, seed=29)
    dist = run_geometry_distributed(scene, cfg, RANKS)
    ref = serial_reference_tallies(scene, cfg)
    return scene, dist, ref


def test_ch6_geometry_distribution(benchmark):
    scene, dist, ref = benchmark.pedantic(run_study, rounds=1, iterations=1)

    per_rank = [r.local_patches for r in dist.ranks]
    total_traced = sum(r.tallies_applied for r in dist.ranks)
    migrations = dist.total_migrations()
    per_photon = migrations / PHOTONS

    print("\nChapter 6 — geometry distribution (Computer Lab, 4 ranks)")
    print(
        format_table(
            ["metric", "value"],
            [
                ["total patches", dist.total_patches],
                ["patches per rank", per_rank],
                ["max rank / replicated", f"{dist.max_rank_patches()} / {dist.total_patches}"],
                ["replication factor", f"{dist.replication_factor():.2f} (4.00 = replicated)"],
                ["photon migrations", migrations],
                ["migrations per photon", f"{per_photon:.2f} (vs {RANKS - 1} for bounding-box broadcast)"],
                ["rounds to drain", max(r.rounds for r in dist.ranks)],
            ],
        )
    )

    # Memory scaling: each rank holds a strict subset; aggregate
    # replication well below full.
    assert dist.max_rank_patches() < dist.total_patches
    assert dist.replication_factor() < RANKS * 0.85

    # Exactness: migration preserves the answer tally-for-tally.
    got = {k: v for k, v in dist.tallies_per_patch().items() if v}
    want = {k: v for k, v in ref.items() if v}
    assert got == want
    assert total_traced == sum(want.values())

    # Communication: the region hand-off beats the per-photon global
    # reduction of a bounding-box partition (P-1 messages per photon).
    assert per_photon < (RANKS - 1)
