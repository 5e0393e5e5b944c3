"""Pool workers under fault: a worker killed mid-request, a request
interrupted in the parent, a parent tally that raises, and a parent
killed outright.

A ``multiprocessing.Pool`` replaces a dead worker but never delivers the
dead task's result, so a request used to wait forever.  The pool now
fails the request promptly, tears itself down (result blocks included)
and starts afresh on the next request, whose bytes must not notice.  A
request that fails any other way drains its own shards first, so none
of them writes into a result block the next request reads.  A parent
killed outright leaves no worker behind: each exits once it sees itself
re-parented.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE
from repro.core import SimulationConfig
from repro.core.vectorized import VectorEngine
from repro.parallel import procpool
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
        # The broken pool's result blocks are gone, and so is its plane
        # reference: it was the program's last, so the segment went too
        # and the next request publishes afresh.
        assert all("-result-" not in name for name in leaked_segments())
        assert session.program.plane_refs == 0
        assert leaked_segments() == []

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
            with PhotonPool(SceneProgram.compile(lab), config) as pool:
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


def _slow_shard(delay: float, *job):
    """A shard job that starts tracing *delay* seconds late."""
    time.sleep(delay)
    return procpool._trace_shard_pooled(*job)


@needs_plane
def test_a_raising_tally_drains_the_shards_it_submitted(monkeypatch):
    """Shard 0's tally raises while shard 1 still traces: ``run()``
    re-raises only once shard 1 is done, and the next ``run()`` on the
    same blocks gives the serial bytes."""
    lab = get_scene("computer-lab")
    config = SimulationConfig(n_photons=600, seed=5, workers=2)
    with PhotonPool(SceneProgram.compile(lab), config) as pool:
        pool.run()  # workers up, result blocks allocated
        executor = pool._pool._executor
        real_submit = executor.submit
        submitted = []

        def submit(fn, *args):
            if fn is procpool._trace_shard_pooled and submitted:
                fn, args = _slow_shard, (0.5, *args)
            submitted.append(real_submit(fn, *args))
            return submitted[-1]

        def boom(forest, block, photons):
            raise RuntimeError("tally fell over")

        monkeypatch.setattr(executor, "submit", submit)
        monkeypatch.setattr(procpool, "tally_block", boom)
        with pytest.raises(RuntimeError, match="fell over"):
            pool.run()
        assert len(submitted) == 2
        assert all(future.done() for future in submitted)
        assert not KERNEL_GATE.locked()
        monkeypatch.undo()
        blocks = pool.result_blocks
        again = pool.run()
        assert pool.result_blocks is blocks
    expected = VectorEngine(lab).run(SimulationConfig(n_photons=600, seed=5))
    assert canonical_answer_bytes(again) == canonical_answer_bytes(expected)
    assert leaked_segments() == []


@needs_plane
def test_a_raising_tally_leaves_the_pool_block_as_itself(monkeypatch):
    """A tally error leaves ``with PhotonPool`` unchanged, through
    ``close(terminate=True)``, with no segment left behind."""

    def boom(forest, block, photons):
        raise RuntimeError("tally fell over")

    monkeypatch.setattr(procpool, "tally_block", boom)
    config = SimulationConfig(n_photons=300, seed=6, workers=2)
    with pytest.raises(RuntimeError, match="fell over"):
        program = SceneProgram.compile(get_scene("cornell-box"))
        with PhotonPool(program, config) as pool:
            pool.run()
    assert leaked_segments() == []


#: A process that owns a ``workers=2`` pool, prints its workers' pids,
#: and waits to be killed.
_POOL_OWNER = """
import time
from repro.api import RenderSession, SessionOptions, SimulateRequest
session = RenderSession("cornell-box", SessionOptions(workers=2))
session.simulate(SimulateRequest(n_photons=64))
print(*session._pool._pool._executor._processes, flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a process that has not exited (a zombie has)."""
    if not os.path.isdir("/proc"):  # no procfs: a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_plane
def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed pool owner leaves no worker behind, so its resource
    tracker unlinks the planes it left in ``/dev/shm``."""
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(procpool.__file__).resolve().parents[2]
    owner = subprocess.Popen(
        [sys.executable, "-c", _POOL_OWNER],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,  # the tracker's leaked-segment warning
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
    finally:
        owner.kill()
        owner.wait(timeout=30)
        owner.stdout.close()
    deadline = time.monotonic() + 20
    try:
        while any(map(_running, workers)) or leaked_segments():
            assert time.monotonic() < deadline, (workers, leaked_segments())
            time.sleep(0.05)
    finally:  # a failed run must not leave its orphans to the suite
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


@needs_plane
def test_a_pool_outlives_the_thread_that_started_it():
    """Workers watch their parent process, not the request thread that
    forked them: once that thread is gone they stay and serve."""
    request = SimulateRequest(n_photons=300, seed=8)
    with RenderSession("cornell-box", SessionOptions(workers=2)) as session:
        starter = threading.Thread(
            target=session.simulate, args=(SimulateRequest(n_photons=64),)
        )
        starter.start()
        starter.join(30)
        assert not starter.is_alive()
        pool = session._pool
        workers = list(pool._pool._executor._processes)
        time.sleep(3 * procpool._PARENT_POLL_S)
        assert all(map(_running, workers))
        answer = session.simulate(request)
        assert session._pool is pool
        assert list(pool._pool._executor._processes) == workers
    with RenderSession("cornell-box") as serial:
        expected = serial.simulate(request)
    assert canonical_answer_bytes(answer) == canonical_answer_bytes(expected)
    assert leaked_segments() == []
