"""Pool workers under fault: a worker killed mid-request, and a request
interrupted in the parent.

A ``multiprocessing.Pool`` replaces a dead worker but never delivers the
dead task's result, so a request used to wait forever.  The pool now
fails the request promptly, tears itself down (result blocks included)
and starts afresh on the next request, whose bytes must not notice.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.core import SimulationConfig
from repro.parallel.procpool import PhotonPool
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.scenes import get_scene
from repro.service.service import canonical_answer_bytes

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)


def _children_since(before: set) -> list:
    return [p for p in multiprocessing.active_children() if p.pid not in before]


@needs_plane
def test_killed_worker_fails_the_request_promptly():
    before = {p.pid for p in multiprocessing.active_children()}
    small = SimulateRequest(n_photons=2_000, seed=3)
    with RenderSession("computer-lab", SessionOptions(workers=2)) as session:
        session.simulate(SimulateRequest(n_photons=200, seed=1))
        workers = _children_since(before)
        assert len(workers) == 2
        outcome: dict = {}

        def big_request() -> None:
            try:
                session.simulate(SimulateRequest(n_photons=60_000, seed=2))
            except Exception as exc:  # inspected below
                outcome["error"] = exc

        thread = threading.Thread(target=big_request, daemon=True)
        thread.start()
        time.sleep(0.05)
        started = time.monotonic()
        os.kill(workers[0].pid, signal.SIGKILL)
        thread.join(20)
        assert not thread.is_alive(), "simulate() hung on a dead worker"
        assert time.monotonic() - started < 20
        assert isinstance(outcome.get("error"), BrokenProcessPool)
        # The broken pool's result blocks are gone; the registry-owned
        # scene plane is all that is left until the session closes.
        assert all("-result-" not in name for name in leaked_segments())

        again = session.simulate(small)
        assert {p.pid for p in _children_since(before)}.isdisjoint(
            p.pid for p in workers
        )
    with RenderSession("computer-lab") as serial:
        expected = serial.simulate(small)
    assert canonical_answer_bytes(again) == canonical_answer_bytes(expected)
    assert leaked_segments() == []


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


@needs_plane
def test_an_interrupted_request_stops_its_workers():
    """An exception mid-``starmap`` leaves the ``with`` block through
    ``close(terminate=True)``: the running shards are stopped, not left
    burning CPU over planes that are already unlinked."""
    before = {p.pid for p in multiprocessing.active_children()}
    lab = get_scene("computer-lab")
    config = SimulationConfig(n_photons=200, seed=1, workers=2)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        with pytest.raises(_Interrupted):
            with PhotonPool(lab, config) as pool:
                pool.run()
                workers = _children_since(before)
                assert len(workers) == 2
                signal.setitimer(signal.ITIMER_REAL, 0.05)
                pool.run(SimulationConfig(n_photons=60_000, seed=2, workers=2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not any(p.is_alive() for p in workers)
    assert _children_since(before) == []
    assert leaked_segments() == []
