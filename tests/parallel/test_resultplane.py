"""Shared-memory result plane: descriptors, recycling, overflow, leaks.

The return transport's contract mirrors the scene plane's, with two
extra moving parts the tests pin separately:

* **Fidelity** — a block round-trips an :class:`EventBatch`
  bit-for-bit, the parent's views are zero-copy, and a real 2-process
  pool reproduces the single-process forest byte for byte (the golden
  suites extend this through every engine x worker x wave-width
  combination — the blocks are the pool's only result transport).
* **Descriptors** — what crosses the boundary is O(workers) small
  :class:`ShardResult` objects, never O(events) pickles.
* **Lifecycle** — blocks recycle verbatim across warm requests, regrow
  when the budget grows (old segment unlinked first), survive overflow
  by shipping the shard inline, loudly, with identical bytes, and never
  outlive the pool — including after a worker exception mid-result.
  A block segment that cannot be created propagates with nothing
  leaked, and the next request allocates afresh.
"""

from __future__ import annotations

import errno
import json
import pickle

import pytest

from repro.api import SceneProgram
from repro.core import (
    EVENT_FIELDS,
    SimulationConfig,
    forest_to_dict,
)
from repro.core.vectorized import EventBatch, VectorEngine
from repro.parallel import resultplane
from repro.parallel.procpool import PhotonPool
from repro.parallel.resultplane import (
    MIN_BLOCK_EVENTS,
    ResultPlane,
    ResultPlaneWarning,
    ShardResult,
    block_capacity,
    gather_shards,
    pack_shard,
    wire_bytes,
)
from repro.parallel.shmplane import leaked_segments


@pytest.fixture(autouse=True)
def _plane_hygiene():
    """Every test starts detached and must leak no segments."""
    resultplane.detach_worker_blocks()
    yield
    resultplane.detach_worker_blocks()
    assert leaked_segments() == []


def _forest_bytes(forest) -> str:
    return json.dumps(forest_to_dict(forest))


def _trace_events(scene, count=300, seed=0xC0FFEE, start=0):
    engine = VectorEngine(scene)
    events, stats = engine.trace_range(seed, start, count)
    return events.sorted_canonical(), stats


def _batches_equal(a: EventBatch, b: EventBatch) -> None:
    for name, _ in EVENT_FIELDS:
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name


class TestBlockRoundTrip:
    def test_write_then_view_is_bit_identical(self, cornell):
        events, stats = _trace_events(cornell)
        with ResultPlane(blocks=2, capacity=len(events) + 7) as plane:
            result = pack_shard(events, stats, plane.handle, slot=1)
            assert result.slot == 1 and result.payload is None
            _batches_equal(plane.view(1, result.count), events)

    def test_parent_views_are_zero_copy(self, cornell):
        events, stats = _trace_events(cornell)
        with ResultPlane(blocks=1, capacity=len(events)) as plane:
            pack_shard(events, stats, plane.handle, slot=0)
            view = plane.view(0, len(events))
            assert not view.gidx.flags.owndata
            assert not view.theta.flags.owndata

    def test_zero_event_shard_round_trips(self):
        empty = EventBatch.empty()
        from repro.core.simulator import TraceStats

        with ResultPlane(blocks=1, capacity=MIN_BLOCK_EVENTS) as plane:
            result = pack_shard(empty, TraceStats(), plane.handle, slot=0)
            assert result.slot == 0 and result.count == 0
            merged, _ = gather_shards([result], plane)
            assert len(merged) == 0

    def test_gather_preserves_job_order(self, cornell):
        part_a, st_a = _trace_events(cornell, count=60, start=0)
        part_b, st_b = _trace_events(cornell, count=60, start=60)
        cap = max(len(part_a), len(part_b))
        with ResultPlane(blocks=2, capacity=cap) as plane:
            results = [
                pack_shard(part_a, st_a, plane.handle, 0),
                pack_shard(part_b, st_b, plane.handle, 1),
            ]
            merged, stats = gather_shards(results, plane)
            _batches_equal(merged, EventBatch.concat([part_a, part_b]))
            assert stats.photons == st_a.photons + st_b.photons


class TestDescriptors:
    def test_descriptor_is_small_regardless_of_events(self, cornell):
        events, stats = _trace_events(cornell)
        with ResultPlane(blocks=1, capacity=len(events)) as plane:
            result = pack_shard(events, stats, plane.handle, 0)
            descriptor_bytes = len(pickle.dumps(result))
        # A block too small for the shard: the columns ride inline.
        with ResultPlane(blocks=1, capacity=len(events) - 1) as small:
            payload = pack_shard(events, stats, small.handle, 0)
            payload_bytes = len(pickle.dumps(payload))
        assert payload.overflow
        assert descriptor_bytes < 1024
        # The pickle path pays the full eight columns x 8 bytes.
        assert payload_bytes > len(events) * 8 * 8
        assert wire_bytes([result]) == descriptor_bytes

    def test_overflow_falls_back_with_flag(self, cornell):
        events, stats = _trace_events(cornell)
        with ResultPlane(blocks=1, capacity=len(events) - 1) as plane:
            result = pack_shard(events, stats, plane.handle, 0)
            assert result.slot == -1 and result.overflow
            with pytest.warns(ResultPlaneWarning, match="overflow"):
                merged, _ = gather_shards([result], plane)
            _batches_equal(merged, events)

    def test_gather_without_plane_rejects_block_descriptors(self):
        from repro.core.simulator import TraceStats

        orphan = ShardResult(slot=0, count=5, stats=TraceStats())
        with pytest.raises(RuntimeError, match="no result plane"):
            gather_shards([orphan], None)


class TestCapacity:
    def test_capacity_has_floor(self):
        assert block_capacity(1) == MIN_BLOCK_EVENTS
        assert block_capacity(100_000) > MIN_BLOCK_EVENTS


class TestPooledRuns:
    """Real 2-process pools: events through blocks, same bytes, no leaks."""

    @pytest.fixture(scope="class")
    def reference(self, cornell):
        config = SimulationConfig(n_photons=600, seed=0xC0FFEE)
        return VectorEngine(cornell).run(config)

    @pytest.mark.parametrize("scene_name", ["cornell", "lab_small"])
    def test_pool_returns_events_through_blocks(self, request, scene_name):
        scene = request.getfixturevalue(scene_name)
        single = SimulationConfig(n_photons=600, seed=0xC0FFEE)
        expected = VectorEngine(scene).run(single)
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE, workers=2
        )
        with PhotonPool(SceneProgram.compile(scene), config) as pool:
            result = pool.run()
            results = pool.last_shard_results
            assert pool.result_blocks is not None
            assert all(r.slot >= 0 for r in results)
            assert wire_bytes(results) < config.workers * 1024
        assert result.stats == expected.stats
        assert _forest_bytes(result.forest) == _forest_bytes(expected.forest)
        assert leaked_segments() == []

    def test_blocks_recycle_across_warm_requests(self, cornell):
        """Request #2 reuses the same ResultPlane object and segment."""
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE,
            workers=2,
        )
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            first = pool.run()
            blocks = pool.result_blocks
            name = blocks.name
            again = pool.run()
            assert pool.result_blocks is blocks
            assert pool.result_blocks.name == name
            assert _forest_bytes(first.forest) == _forest_bytes(again.forest)

    def test_blocks_regrow_for_bigger_budgets(self, cornell):
        """A budget the blocks cannot hold unlinks and reallocates them."""
        config = SimulationConfig(
            n_photons=200, seed=0xC0FFEE,
            workers=2,
        )
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            pool.run()
            small = pool.result_blocks
            grown_photons = MIN_BLOCK_EVENTS * 2  # per-shard need > floor
            bigger = SimulationConfig(
                n_photons=grown_photons * 2, seed=1, workers=2,
            )
            pool.run(bigger)
            assert pool.result_blocks is not small
            assert small.name not in leaked_segments()  # old segment gone
            assert pool.result_blocks.capacity > small.capacity
        assert leaked_segments() == []

    def test_regrow_enospc_propagates_and_pool_recovers(
        self, cornell, enospc_once
    ):
        """ENOSPC on a result-block regrow: the request raises with old
        and new segments both gone, and the following request
        re-allocates and answers byte-identically."""
        small = SimulationConfig(
            n_photons=200, seed=0xC0FFEE, workers=2
        )
        bigger = SimulationConfig(
            n_photons=MIN_BLOCK_EVENTS * 4, seed=1, workers=2
        )
        expected = VectorEngine(cornell).run(
            SimulationConfig(
                n_photons=bigger.n_photons, seed=1
            )
        )
        with PhotonPool(SceneProgram.compile(cornell), small) as pool:
            pool.run()
            old_name = pool.result_blocks.name
            [scene_segment] = set(leaked_segments()) - {old_name}
            refused = enospc_once(resultplane)
            with pytest.raises(OSError) as raised:
                pool.run(bigger)
            assert raised.value.errno == errno.ENOSPC
            assert pool.result_blocks is None
            assert leaked_segments() == [scene_segment]  # old and new gone
            result = pool.run(bigger)
            assert pool.result_blocks is not None
            assert pool.result_blocks.name != old_name
        assert len(refused) == 1
        assert result.stats == expected.stats
        assert _forest_bytes(result.forest) == _forest_bytes(expected.forest)
        assert leaked_segments() == []

    def test_worker_exception_releases_blocks(self, cornell):
        config = SimulationConfig(
            n_photons=100, seed=1, workers=2
        )
        with pytest.raises(RuntimeError, match="boom"):
            with PhotonPool(SceneProgram.compile(cornell), config) as pool:
                pool.trace_range(1, 0, 100)  # blocks now live
                assert pool.result_blocks is not None
                assert pool.result_blocks.name in leaked_segments()
                pool._pool.apply(_boom)
        assert leaked_segments() == []

    def test_overflow_in_real_pool_is_loud_and_correct(
        self, cornell, reference, monkeypatch
    ):
        """Blocks too small for the trace: loud warning, identical bytes.

        The headroom factor is patched parent-side only (workers size
        nothing), so every shard overflows its block and ships the
        pickle payload instead.
        """
        monkeypatch.setattr(resultplane, "EVENTS_PER_PHOTON_HEADROOM", 0.001)
        monkeypatch.setattr(resultplane, "MIN_BLOCK_EVENTS", 1)
        config = SimulationConfig(
            n_photons=600, seed=0xC0FFEE,
            workers=2,
        )
        with PhotonPool(SceneProgram.compile(cornell), config) as pool:
            with pytest.warns(ResultPlaneWarning, match="overflow"):
                result = pool.run()
            assert all(r.overflow for r in pool.last_shard_results)
        assert _forest_bytes(result.forest) == _forest_bytes(reference.forest)
        assert leaked_segments() == []


class TestFreshProcessLifecycle:
    def test_pool_forked_before_any_tracker_exits_clean(self, tmp_path):
        """Regression: a fresh interpreter whose pool forks *before* any
        shared-memory activity.  Workers then spawn private resource
        trackers, which used to unlink the parent's result blocks at
        worker exit (the attach-registers-too behaviour of 3.11) —
        the parent's own unlink crashed with FileNotFoundError.  The
        attach paths now unregister immediately, so a cold CLI-shaped
        run must exit 0 with no segments left behind.
        """
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "from repro.api import SceneProgram\n"
            "from repro.core import SimulationConfig\n"
            "from repro.parallel.procpool import PhotonPool\n"
            "from repro.parallel.shmplane import leaked_segments\n"
            "from repro.scenes import cornell_box\n"
            "config = SimulationConfig(n_photons=300,\n"
            "                          workers=2)\n"
            "program = SceneProgram.compile(cornell_box())\n"
            "with PhotonPool(program, config) as pool:\n"
            "    pool.run()\n"
            "    pool.run()\n"
            "assert leaked_segments() == [], leaked_segments()\n"
        )
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            cwd=str(repo_root),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


class TestSessionIntegration:
    """The session owns the blocks through its pool; streaming uses them."""

    def test_stream_serves_batches_from_the_plane(self, cornell):
        from repro.api import RenderSession, SessionOptions, SimulateRequest

        options = SessionOptions(workers=2)
        request = SimulateRequest(n_photons=400, seed=0xC0FFEE)
        with RenderSession(cornell, options) as session:
            final = None
            for final in session.simulate_stream(request, batch_size=100):
                results = session._pool.last_shard_results
                assert results and all(r.slot >= 0 for r in results)
            one_shot = session.simulate(request)
        assert _forest_bytes(final.forest) == _forest_bytes(one_shot.forest)
        assert leaked_segments() == []

    def test_warm_session_reuses_block_objects(self, cornell):
        from repro.api import RenderSession, SessionOptions, SimulateRequest

        options = SessionOptions(workers=2)
        request = SimulateRequest(n_photons=300, seed=0xC0FFEE)
        with RenderSession(cornell, options) as session:
            session.simulate(request)
            blocks = session._pool.result_blocks
            assert blocks is not None
            session.simulate(request)
            assert session._pool.result_blocks is blocks
        assert leaked_segments() == []


def _boom() -> None:
    """Pool target that always fails (worker-exception lifecycle test)."""
    raise RuntimeError("boom")
