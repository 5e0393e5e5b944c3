"""Process-pool backend: determinism across workers, wave widths,
landing order and merges.

The pool must be an implementation detail: any worker count, any wave
width, and any order the shards land in must serialise to the *same
bytes* as a single-process vector run (which the parity suite in turn
locks to the scalar oracle).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import SceneProgram
from repro.core import SimulationConfig, forest_to_dict
from repro.core import vectorized
from repro.core.bintree import BinForest
from repro.core.vectorized import EventBatch, VectorEngine, apply_events
from repro.paper.distributed import merge_rank_forests
from repro.parallel import procpool
from repro.parallel.procpool import PhotonPool
from repro.parallel.resultplane import block_capacity
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.scenes import get_scene

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


def _forest_bytes(forest) -> str:
    return json.dumps(forest_to_dict(forest))


def pool_run(scene, config: SimulationConfig):
    """*config* traced on a fresh :class:`PhotonPool` over *scene*."""
    with PhotonPool(SceneProgram.compile(scene), config) as pool:
        return pool.run()


def spy_shard_jobs(pool: PhotonPool) -> list:
    """The shard jobs *pool* submits from now on, in submission order."""
    jobs = []
    starmap = pool._pool.starmap

    def spy(fn, shard_jobs):
        jobs.extend(shard_jobs)
        return starmap(fn, shard_jobs)

    pool._pool.starmap = spy
    return jobs


def _in_flight() -> int:
    """Pool target: the wave width this worker's engines take."""
    return vectorized.PHOTONS_IN_FLIGHT


@pytest.fixture(scope="module")
def reference(request):
    """Single-process vector run the pool must reproduce."""
    cornell = request.getfixturevalue("cornell")
    config = SimulationConfig(n_photons=1200, seed=0xC0FFEE)
    return VectorEngine(cornell).run(config)


@needs_plane
class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_bytes_any_worker_count(self, cornell, reference, workers):
        config = SimulationConfig(
            n_photons=1200, seed=0xC0FFEE, workers=workers
        )
        result = pool_run(cornell, config)
        assert result.stats == reference.stats
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    @pytest.mark.parametrize("batch_size", [64, 512, 4096])
    def test_same_bytes_any_batch_size(
        self, monkeypatch, cornell, reference, batch_size
    ):
        """Workers forked with another wave width trace the same bytes."""
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", batch_size)
        config = SimulationConfig(n_photons=1200, seed=0xC0FFEE, workers=3)
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            assert pool._pool.apply(_in_flight) == batch_size
            result = pool.run()
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    def test_real_processes(self, cornell, reference):
        """One end-to-end run on genuine multiprocessing workers."""
        config = SimulationConfig(
            n_photons=1200, seed=0xC0FFEE, workers=2
        )
        result = pool_run(cornell, config)
        assert result.stats == reference.stats
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    @pytest.mark.parametrize("photons", [7, 3000])
    def test_attached_workers_start_at_every_cut(self, office64, photons):
        """Workers derive the walk's cuts from the plane's arrays: a
        7-photon request's 4- and 3-lane shards start at the deepest
        cuts, a 3,000-photon one's at the root, and both serve the
        single-process bytes."""
        config = SimulationConfig(n_photons=photons, seed=7, workers=2)
        result = pool_run(office64, config)
        serial = VectorEngine(office64).run(
            SimulationConfig(n_photons=photons, seed=7)
        )
        assert _forest_bytes(result.forest) == _forest_bytes(serial.forest)

    @pytest.mark.parametrize("start", [0, 50])
    def test_grow_reports_exact_prefixes_from_one_shard_set(
        self, cornell, start
    ):
        """``grow`` yields each multiple of its step inside the range, and
        the range's end, once the forest holds exactly the photons below
        it (a cold ``run``'s forest for that budget), from the one shard
        set ``run`` submits: its report points cut no shard job."""
        config = SimulationConfig(n_photons=500, seed=13, workers=2)
        head = SimulationConfig(n_photons=start, seed=13)
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            ran = pool.run(config, pool.run(head).forest, start)
            forest = pool.run(head).forest
            jobs = spy_shard_jobs(pool)
            yielded = []
            for stop in pool.grow(config, forest, start, 111):
                yielded.append(stop)
                cold = VectorEngine(cornell).run(
                    SimulationConfig(n_photons=stop, seed=13)
                )
                assert _forest_bytes(forest) == _forest_bytes(cold.forest)
                assert forest.trace_stats == cold.stats
        assert yielded == [111, 222, 333, 444, 500]
        assert len(jobs) == 2
        assert forest.trace_stats == ran.forest.trace_stats
        assert ran.stats.photons == 500 - start

    def test_long_grow_runs_shard_sets_of_a_wave_per_worker(self, cornell):
        """A long range with report points inside runs as consecutive
        shard sets, each ending at the first report point at least one
        wave per worker (2 × 4,096 photons) on, the last taking what
        would leave less: a caller can stop it after one set, and the
        result blocks hold a set's shard, not half the budget.  ``run``
        over the same range is still one set."""
        config = SimulationConfig(n_photons=40_000, seed=13, workers=2)
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            jobs = spy_shard_jobs(pool)
            forest = BinForest(config.policy)
            steps = pool.grow(config, forest, 0, 4_096)
            assert next(steps) == 4_096
            assert len(jobs) == 2
            assert pool.result_blocks.handle.capacity == (
                block_capacity(4_096)
            )
            assert list(steps)[-1] == 40_000
            assert pool.result_blocks.handle.capacity == (
                block_capacity(7_712)
            )
            assert [(job[2], job[3]) for job in jobs] == [
                (0, 4_096), (4_096, 4_096),
                (8_192, 4_096), (12_288, 4_096),
                (16_384, 4_096), (20_480, 4_096),
                (24_576, 7_712), (32_288, 7_712),
            ]
            jobs.clear()
            ran = pool.run(config)
        assert [(job[2], job[3]) for job in jobs] == [
            (0, 20_000), (20_000, 20_000)
        ]
        assert _forest_bytes(forest) == _forest_bytes(ran.forest)
        assert forest.trace_stats == ran.stats

    def test_zero_photons(self, cornell):
        config = SimulationConfig(
            n_photons=0, seed=1, workers=2
        )
        result = pool_run(cornell, config)
        assert result.forest.total_tallies == 0
        assert result.stats.photons == 0


class TestMergeOrder:
    def test_merge_order_does_not_change_tallies(self, cornell):
        """Disjoint per-rank forest sections (the distributed tier's
        shape) merge identically in any order."""
        config = SimulationConfig(n_photons=800, seed=0xBEEF)
        events, _ = VectorEngine(cornell).trace_range(config.seed, 0, 800)
        sections = []
        for w in range(3):
            section = BinForest(config.policy)
            apply_events(section, events.take((events.patch % 3 == w).nonzero()[0]))
            sections.append(section)
        forward = merge_rank_forests(sections, config.policy)
        backward = merge_rank_forests(list(reversed(sections)), config.policy)
        rotated = merge_rank_forests(sections[1:] + sections[:1], config.policy)
        assert (
            forward.tallies_per_patch()
            == backward.tallies_per_patch()
            == rotated.tallies_per_patch()
        )
        assert forward.total_tallies == backward.total_tallies
        assert forward.band_tallies == backward.band_tallies == rotated.band_tallies
        # Node-level identity, not just totals: same trees object-for-object.
        fdict = {k: forest_to_dict_tree(v) for k, v in forward.trees.items()}
        bdict = {k: forest_to_dict_tree(v) for k, v in backward.trees.items()}
        assert fdict == bdict


def forest_to_dict_tree(tree):
    """Serialise one tree for node-level comparison."""
    from repro.core.answerfile import _node_to_obj

    return {"lo": list(tree.root.lo), "hi": list(tree.root.hi),
            "root": _node_to_obj(tree.root)}


class TestShardTracing:
    def test_shards_concatenate_to_full_range(self, cornell):
        """Sharded tracing covers each photon exactly once: two ranges,
        each sorted as a worker ships it, concatenate to the whole."""
        engine = VectorEngine(cornell)
        whole, _ = engine.trace_range(0xAB, 0, 300)
        part_a, _ = engine.trace_range(0xAB, 0, 120)
        part_b, _ = engine.trace_range(0xAB, 120, 180)
        merged = EventBatch.concat(
            [part_a.sorted_canonical(), part_b.sorted_canonical()]
        )
        full = whole.sorted_canonical()
        assert full.gidx.tolist() == merged.gidx.tolist()
        assert full.patch.tolist() == merged.patch.tolist()
        assert full.theta.tolist() == merged.theta.tolist()


    @pytest.mark.parametrize("start, count, message", [
        (0, -1, "count must be non-negative, got -1"),
        (-3, 10, "start must be non-negative, got -3"),
    ], ids=["count", "start"])
    def test_negative_range_raises_in_the_parent(
        self, cornell, start, count, message
    ):
        """The engine's errors, before any worker starts or any result
        block is allocated (a negative count used to trace nothing)."""
        config = SimulationConfig(n_photons=100, workers=2)
        pool = PhotonPool(SceneProgram.compile(cornell), config)
        try:
            with pytest.raises(ValueError, match=message):
                pool.trace_range(0xAB, start, count)
            assert pool.result_blocks is None
            assert pool._pool is None
        finally:
            pool.close()


#: Seconds between two shards' landings in the reverse-landing runs:
#: far above a 450-photon shard's trace time.
LANDING_GAP = 0.2


def _late_shard(delay: float, *job):
    """A pooled shard job that starts tracing *delay* seconds late."""
    time.sleep(delay)
    return procpool._trace_shard_pooled(*job)


def _serial_bytes(scene, photons: int, seed: int) -> str:
    config = SimulationConfig(n_photons=photons, seed=seed)
    return _forest_bytes(VectorEngine(scene).run(config).forest)


@pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)
class TestLandingOrder:
    """The parent tallies in shard order, whatever order shards land in."""

    PHOTONS = 450
    SEED = 0x5EED

    def _reversed_run(self, scene_name: str, workers: int, monkeypatch):
        """One pooled run whose last shard lands first and shard 0 last."""
        scene = get_scene(scene_name)
        config = SimulationConfig(
            n_photons=self.PHOTONS, seed=self.SEED, workers=workers
        )
        landed = []
        with PhotonPool(SceneProgram.compile(scene), config) as pool:
            executor = pool._pool._executor
            real_submit = executor.submit

            def submit(fn, *args):
                if fn is not procpool._trace_shard_pooled:
                    return real_submit(fn, *args)
                slot = args[-1]
                delay = (workers - 1 - slot) * LANDING_GAP
                future = real_submit(_late_shard, delay, *args)
                future.add_done_callback(lambda _: landed.append(slot))
                return future

            monkeypatch.setattr(executor, "submit", submit)
            result = pool.run()
            slots = [r.slot for r in pool.last_shard_results]
        assert landed == list(reversed(range(workers)))
        assert leaked_segments() == []
        return scene, result, slots

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("scene_name", ["cornell-box", "computer-lab"])
    def test_reverse_landing_gives_serial_bytes(
        self, scene_name, workers, monkeypatch
    ):
        scene, result, slots = self._reversed_run(
            scene_name, workers, monkeypatch
        )
        assert slots == list(range(workers))
        assert result.forest.photons_emitted == self.PHOTONS
        assert _forest_bytes(result.forest) == _serial_bytes(
            scene, self.PHOTONS, self.SEED
        )
