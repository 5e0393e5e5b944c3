"""Process-pool backend: determinism across workers, batches and merges.

The pool must be an implementation detail: any worker count, any batch
size, and any merge order must serialise to the *same bytes* as a
single-process vector run (which the parity suite in turn locks to the
scalar oracle).
"""

from __future__ import annotations

import json

import pytest

from repro.core import SimulationConfig, SplitPolicy, forest_to_dict
from repro.core.bintree import merge_rank_forests
from repro.core.vectorized import EventBatch, VectorEngine
from repro.parallel.procpool import (
    _build_section,
    _trace_shard,
    build_forest_parallel,
    partition_patches,
    run_procpool,
    trace_events_parallel,
)


class _InlinePool:
    """A pool-shaped in-process executor (keeps unit tests fork-free)."""

    def starmap(self, fn, jobs):
        return [fn(*job) for job in jobs]


def _forest_bytes(forest) -> str:
    return json.dumps(forest_to_dict(forest))


@pytest.fixture(scope="module")
def reference(request):
    """Single-process vector run the pool must reproduce."""
    cornell = request.getfixturevalue("cornell")
    config = SimulationConfig(n_photons=1200, seed=0xC0FFEE)
    return VectorEngine(cornell).run(config)


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_bytes_any_worker_count(self, cornell, reference, workers):
        config = SimulationConfig(
            n_photons=1200, seed=0xC0FFEE,
            workers=workers, batch_size=256,
        )
        result = run_procpool(cornell, config, pool=_InlinePool())
        assert result.stats == reference.stats
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    @pytest.mark.parametrize("batch_size", [64, 512, 4096])
    def test_same_bytes_any_batch_size(self, cornell, reference, batch_size):
        config = SimulationConfig(
            n_photons=1200, seed=0xC0FFEE,
            workers=3, batch_size=batch_size,
        )
        result = run_procpool(cornell, config, pool=_InlinePool())
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    def test_real_processes(self, cornell, reference):
        """One end-to-end run on genuine multiprocessing workers."""
        config = SimulationConfig(
            n_photons=1200, seed=0xC0FFEE, workers=2
        )
        result = run_procpool(cornell, config)
        assert result.stats == reference.stats
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)

    def test_zero_photons(self, cornell):
        config = SimulationConfig(
            n_photons=0, seed=1, workers=2
        )
        result = run_procpool(cornell, config, pool=_InlinePool())
        assert result.forest.total_tallies == 0
        assert result.stats.photons == 0


class TestMergeOrder:
    def test_merge_order_does_not_change_tallies(self, cornell):
        """Per-worker forest sections merge identically in any order."""
        config = SimulationConfig(
            n_photons=800, seed=0xBEEF, workers=3
        )
        pool = _InlinePool()
        events, _ = trace_events_parallel(pool, cornell, config)
        owner = partition_patches(events.patch, 3)
        sections = [
            _build_section(
                config.policy,
                tuple(
                    getattr(events.take((owner == w).nonzero()[0]), name)
                    for name in ("gidx", "seq", "patch", "s", "t",
                                 "theta", "r2", "band")
                ),
            )
            for w in range(3)
        ]
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

    def test_ownership_partitions_disjointly(self):
        import numpy as np

        pids = np.arange(97)
        owner = partition_patches(pids, 4)
        assert set(owner.tolist()) == {0, 1, 2, 3}
        # Stable: same patch always lands on the same worker.
        assert (owner == partition_patches(pids, 4)).all()


def forest_to_dict_tree(tree):
    """Serialise one tree for node-level comparison."""
    from repro.core.answerfile import _node_to_obj

    return {"lo": list(tree.root.lo), "hi": list(tree.root.hi),
            "root": _node_to_obj(tree.root)}


class TestShardTracing:
    def test_shards_concatenate_to_full_range(self, cornell):
        """Sharded tracing covers each photon exactly once."""
        whole = _trace_shard(cornell, None, 4096, 0xAB, 0, 300)
        part_a = _trace_shard(cornell, None, 4096, 0xAB, 0, 120)
        part_b = _trace_shard(cornell, None, 4096, 0xAB, 120, 180)
        # The injected-pool target ships inline payloads (nothing forked,
        # so there is no result plane to write into).
        assert whole.slot == part_a.slot == part_b.slot == -1
        merged = EventBatch.concat(
            [EventBatch(*part_a.payload), EventBatch(*part_b.payload)]
        ).sorted_canonical()
        full = EventBatch(*whole.payload)
        assert full.gidx.tolist() == merged.gidx.tolist()
        assert full.patch.tolist() == merged.patch.tolist()
        assert full.theta.tolist() == merged.theta.tolist()
