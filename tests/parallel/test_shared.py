"""Shared-memory Photon (Figure 5.2): lock protocol and equivalence.

The locked Figure 5.2 protocol loses no tallies: totals equal the serial
replay of the same leapfrog streams, and one worker is the serial run.
"""

import json
import threading

import pytest

from repro.core import SimulationConfig, forest_to_dict
from repro.paper.scalar import run_scalar
from repro.paper.shared import RWLock, SharedConfig, run_shared


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
        from repro.paper.scalar import trace_photon
        from repro.paper.distributed import rank_share
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

