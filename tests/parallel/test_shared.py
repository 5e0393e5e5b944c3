"""Shared-memory Photon (Figure 5.2): lock protocol and equivalence.

Two regimes, two guarantees.  The scalar engine demonstrates the locked
Figure 5.2 protocol (no lost tallies, totals equal the serial replay).
The vector engine runs the sharded lock-free reduction and therefore
promises something stronger: the whole forest is **byte-identical** to a
serial vector run for every worker count, on either side of the
engine's accelerator choice — pinned here tally-for-tally, against the
committed goldens, and with zero lock contention by construction.
"""

import json
import threading

import pytest

from repro.core import (
    SimulationConfig,
    SplitPolicy,
    forest_to_dict,
    run_scalar,
    save_answer,
)
from repro.core.vectorized import VectorEngine
from repro.parallel import RWLock, SharedConfig, run_shared


class TestRWLock:
    def test_write_excludes_write(self):
        lock = RWLock()
        acquired = []

        lock.acquire_write()

        def second():
            lock.acquire_write()
            acquired.append(True)
            lock.release_write()

        t = threading.Thread(target=second, daemon=True)
        t.start()
        t.join(0.05)
        assert not acquired  # still blocked
        lock.release_write()
        t.join(2.0)
        assert acquired
        assert lock.contended >= 1

    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        done = []

        def reader():
            lock.acquire_read()
            done.append(True)
            lock.release_read()

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        t.join(1.0)
        assert done  # concurrent read allowed
        lock.release_read()

    def test_writer_waits_for_reader(self):
        lock = RWLock()
        lock.acquire_read()
        progressed = []

        def writer():
            lock.acquire_write()
            progressed.append(True)
            lock.release_write()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        t.join(0.05)
        assert not progressed
        lock.release_read()
        t.join(2.0)
        assert progressed

    def test_context_manager(self):
        lock = RWLock()
        with lock:
            pass  # acquires and releases write


class TestSharedRun:
    def test_one_worker_equals_serial(self, mini_scene):
        cfg_shared = SharedConfig(n_photons=400, seed=42)
        cfg_serial = SimulationConfig(n_photons=400, seed=42)
        shared = run_shared(mini_scene, cfg_shared, 1)
        serial = run_scalar(mini_scene, cfg_serial)
        assert json.dumps(forest_to_dict(shared.forest), sort_keys=True) == json.dumps(
            forest_to_dict(serial.forest), sort_keys=True
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_no_lost_tallies(self, mini_scene, workers):
        """Concurrent tallying must lose nothing: total equals the
        single-forest replay of the same leapfrog streams."""
        cfg = SharedConfig(n_photons=600, seed=7)
        shared = run_shared(mini_scene, cfg, workers)
        shared.forest.check_invariants()
        # Replay the same schedule serially.
        from repro.core.simulator import trace_photon
        from repro.parallel import rank_share
        from repro.rng import Lcg48

        expected = 0
        for w in range(workers):
            rng = Lcg48.leapfrog(7, w, workers)
            for _ in range(rank_share(600, w, workers)):
                events, _ = trace_photon(mini_scene, rng)
                expected += len(events)
        assert shared.forest.total_tallies == expected

    def test_worker_shares(self, mini_scene):
        res = run_shared(mini_scene, SharedConfig(n_photons=401), 4)
        assert res.per_worker_photons == [101, 100, 100, 100]

    def test_stats_merged(self, mini_scene):
        res = run_shared(mini_scene, SharedConfig(n_photons=300), 3)
        assert res.stats.photons == 300

    def test_bad_worker_count(self, mini_scene):
        with pytest.raises(ValueError):
            run_shared(mini_scene, SharedConfig(n_photons=10), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SharedConfig(n_photons=-5)


class TestSharedVector:
    """The sharded lock-free reduction behind ``engine="vector"``."""

    @pytest.fixture(scope="class")
    def vector_references(self, cornell, harpsichord):
        """(scene, serial vector run) keyed by the accelerator the engine
        picks on that scene."""
        config = SimulationConfig(n_photons=800, seed=0xBEEF, engine="vector")
        picked = {VectorEngine(scene).accel: scene for scene in (cornell, harpsichord)}
        assert sorted(picked) == ["flat", "linear"]
        return {
            accel: (scene, VectorEngine(scene).run(config))
            for accel, scene in picked.items()
        }

    @pytest.fixture(scope="class")
    def vector_reference(self, vector_references):
        return vector_references["linear"][1]

    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("accel", ["flat", "linear"])
    def test_byte_identical_to_serial_vector(
        self, vector_references, workers, accel
    ):
        """Any worker count, whichever accelerator the engine picks for
        the scene: the *same bytes* as the serial vector engine — not
        merely the same per-patch totals."""
        scene, reference = vector_references[accel]
        config = SharedConfig(
            n_photons=800, seed=0xBEEF, engine="vector", batch_size=128
        )
        result = run_shared(scene, config, workers)
        assert json.dumps(forest_to_dict(result.forest)) == json.dumps(
            forest_to_dict(reference.forest)
        )
        assert result.stats == reference.stats

    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_committed_golden(self, request, tmp_path, workers):
        """The reduction lands on the committed golden answer bytes."""
        from tests.data.regenerate import GOLDEN_PHOTONS, GOLDEN_SEED
        from tests.core.test_golden_answers import golden_bytes

        cornell = request.getfixturevalue("cornell")
        config = SharedConfig(
            n_photons=GOLDEN_PHOTONS, seed=GOLDEN_SEED, engine="vector"
        )
        result = run_shared(cornell, config, workers)
        out = tmp_path / "shared.answer.json"
        save_answer(result.forest, out)
        assert out.read_bytes() == golden_bytes("cornell-box.substream.answer.json")

    def test_lock_free_by_construction(self, cornell):
        """No per-tree locks are ever taken on the vector path."""
        config = SharedConfig(n_photons=400, seed=11, engine="vector")
        result = run_shared(cornell, config, 4)
        assert result.lock_contention == 0

    def test_precompiled_arrays_reused(self, cornell, vector_reference):
        """run_shared(arrays=) traces on caller-compiled arrays (e.g. a
        SceneProgram's) and still lands on the serial vector bytes."""
        from repro.api import SceneProgram

        config = SharedConfig(n_photons=800, seed=0xBEEF, engine="vector")
        result = run_shared(
            cornell, config, 3, arrays=SceneProgram.compile(cornell).arrays
        )
        assert json.dumps(forest_to_dict(result.forest)) == json.dumps(
            forest_to_dict(vector_reference.forest)
        )

    def test_worker_shares_and_invariants(self, cornell):
        config = SharedConfig(n_photons=401, seed=5, engine="vector")
        result = run_shared(cornell, config, 4)
        assert result.per_worker_photons == [101, 100, 100, 100]
        assert result.stats.photons == 401
        result.forest.check_invariants()

    def test_zero_photons(self, cornell):
        result = run_shared(
            cornell, SharedConfig(n_photons=0, engine="vector"), 2
        )
        assert result.forest.total_tallies == 0
        assert result.stats.photons == 0
