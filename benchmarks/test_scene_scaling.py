"""Scene-scale sweep: generated geometry at 1x / 10x / 50x patches.

The procedural generator extends Table 5.1's geometry axis well past the
built-ins (the thesis tops out at ~1.5k defining polygons; ``office-259``
is ~11k).  This bench records, for a 1x/10x/50x ladder of office floors:

* **photons/sec** of the flat octree walk (the throughput cost of
  geometry),
* **slab tests and patch tests per photon** — the octree's promise is
  that work grows sub-linearly in patch count; the ladder makes that
  visible,
* **events per photon** against the result block's bound, the bounce
  cap (:func:`repro.parallel.resultplane.block_capacity`).

Asserted *shape*, never absolute seconds: every ladder trace fits its
block; a 2-process pool sizes its blocks to the bound and answers the
single-process bytes; and the 50x scene — the acceptance scene for
scene ingestion — runs end-to-end through :class:`RenderSession` with
both planes on and leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import SceneProgram
from repro.core import SimulationConfig, forest_to_dict
from repro.core.vectorized import VectorEngine
from repro.paper.perf import format_table
from repro.parallel.procpool import PhotonPool, _shard_starts
from repro.parallel.resultplane import block_capacity
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.scenes.generator import generate_scene


SEED = 0x1234ABCD330E
PHOTONS = 400
WORKERS = 2

#: The ladder: office floors at ~1x, ~10x, and ~50x the 1x patch count
#: (218, 2198, 10927 defining polygons — the last is the >=10k-patch
#: acceptance scene for the ingestion PR).
SCALES = {
    "1x": "office-5",
    "10x": "office-52",
    "50x": "office-259",
}

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


@pytest.fixture(scope="module")
def scaling_runs():
    """Trace the ladder once; rates, test counters, capacities."""
    out = {}
    for label, spec in SCALES.items():
        scene = generate_scene(spec)
        row = {
            "spec": spec,
            "patches": scene.defining_polygon_count,
        }
        engine = VectorEngine(scene)
        assert engine.accel == "flat"
        t0 = time.perf_counter()
        events, stats = engine.trace_range(SEED, 0, PHOTONS)
        elapsed = time.perf_counter() - t0
        row["accels"] = {"flat": {
            "photons_per_s": PHOTONS / elapsed,
            "slab_tests_per_photon": engine.box_tests / PHOTONS,
            "patch_tests_per_photon": engine.patch_tests / PHOTONS,
        }}
        row["events"] = len(events)
        row["max_photon_events"] = int(np.bincount(events.gidx).max())
        out[label] = row
    return out


def test_scaling_table(scaling_runs):
    """Record the geometry-scaling matrix (run with ``-s`` to see it)."""
    rows = []
    for label in SCALES:
        r = scaling_runs[label]
        flat = r["accels"]["flat"]
        rows.append([
            label, r["spec"], f"{r['patches']:,}",
            f"{flat['photons_per_s']:,.0f}",
            f"{flat['slab_tests_per_photon']:,.0f}",
            f"{flat['patch_tests_per_photon']:,.0f}",
            f"{r['events'] / PHOTONS:.2f}",
        ])
    print()
    print(f"Generated office floors, {PHOTONS} photons, vector engine:")
    print(format_table(
        ["scale", "spec", "patches", "flat ph/s",
         "slab tests/ph", "patch tests/ph", "events/ph"],
        rows,
    ))


def test_octree_work_grows_sublinearly(scaling_runs):
    """50x the patches must cost far less than 50x the patch tests on
    the flat octree walk — the hierarchy is what makes the extended
    geometry axis tractable."""
    small = scaling_runs["1x"]["accels"]["flat"]["patch_tests_per_photon"]
    big = scaling_runs["50x"]["accels"]["flat"]["patch_tests_per_photon"]
    ratio = (
        scaling_runs["50x"]["patches"] / scaling_runs["1x"]["patches"]
    )
    assert big / small < ratio / 2


def test_every_trace_fits_its_block(scaling_runs):
    """The bound on every ladder scene: a shard of *PHOTONS* photons
    fits ``block_capacity(PHOTONS)``, and no photon outruns its share."""
    for label, r in scaling_runs.items():
        assert r["events"] <= block_capacity(PHOTONS), label
        assert r["max_photon_events"] <= block_capacity(1), label


@needs_plane
class TestPooledScaling:
    @pytest.fixture(scope="class")
    def gen_scene(self):
        return generate_scene(SCALES["1x"])

    @pytest.fixture(scope="class")
    def reference(self, gen_scene):
        from repro.api import RenderSession, SessionOptions, SimulateRequest

        with RenderSession(gen_scene, SessionOptions()) as session:
            return session.simulate(SimulateRequest(n_photons=PHOTONS, seed=SEED))

    def test_pool_sizes_blocks_to_the_bound(self, gen_scene, reference):
        """A real 2-process pool on a generated scene allocates blocks
        at the bound for its largest shard — and agrees with the
        single-process answer byte-for-byte."""
        config = SimulationConfig(
            n_photons=PHOTONS, seed=SEED,
            workers=WORKERS,
        )
        with PhotonPool(SceneProgram.compile(gen_scene), config) as pool:
            result = pool.run()
            shard = max(share for _, share in _shard_starts(PHOTONS, WORKERS))
            assert pool.result_blocks.capacity == block_capacity(shard)
            assert all(r.slot >= 0 for r in pool.last_shard_results)
        assert json.dumps(forest_to_dict(result.forest)) == json.dumps(
            forest_to_dict(reference.forest)
        )
        assert leaked_segments() == []


@needs_plane
def test_fifty_x_scene_end_to_end_session(scaling_runs):
    """The acceptance run: the >=10k-patch generated scene through a
    multi-process RenderSession (scene plane in, result blocks out),
    blocks sized to the bound, and zero leaked segments afterwards."""
    from repro.api import RenderSession, SessionOptions, SimulateRequest

    scene = generate_scene(SCALES["50x"])
    assert scene.defining_polygon_count >= 10_000
    options = SessionOptions(workers=WORKERS)
    with RenderSession(scene, options) as session:
        result = session.simulate(SimulateRequest(n_photons=PHOTONS, seed=SEED))
        blocks = session._pool.result_blocks
        shard = max(share for _, share in _shard_starts(PHOTONS, WORKERS))
        assert blocks.capacity == block_capacity(shard)
        image = session.render(result, width=48, height=32)
    assert result.stats.photons == PHOTONS
    assert image.shape == (32, 48, 3)
    assert leaked_segments() == []


def test_no_segments_leak(scaling_runs):
    assert leaked_segments() == []
