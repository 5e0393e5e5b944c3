"""Pool workers keep their heap between shards.

With glibc's dynamic thresholds a worker hands its heap top back to the
OS after every shard and faults it in again on the next one.  The pool
initializer fixes both ``mallopt`` thresholds in the processes the pool
owns, so a warm request's shards report next to no minor page faults
(``ShardResult.faults``).  The helper is tested against fakes: the
pytest process's own allocator is never changed.
"""

from __future__ import annotations

import ctypes
import platform
from types import SimpleNamespace

import pytest

from repro.api import RenderSession, SessionOptions, SimulateRequest
from repro.parallel import procpool
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.service.service import canonical_answer_bytes

#: Faults a warm shard may take: a 1,500-photon lab shard whose worker
#: trims its heap takes ~1,100, one that keeps it a few dozen, and up to
#: ~100 on a loaded host.  The bound sits between the two modes.
WARM_SHARD_FAULTS = 300


@pytest.mark.skipif(
    not plane_available()
    or procpool.resource is None
    or platform.libc_ver()[0] != "glibc",
    reason="needs a glibc pool worker with getrusage",
)
def test_warm_request_shards_take_few_faults():
    request = SimulateRequest(n_photons=3000, seed=0x5EED)
    with RenderSession("computer-lab", SessionOptions(workers=2)) as session:
        # Warm up: a worker's first write to a result slot faults ~56
        # pages once, and the executor picks which worker writes which.
        for seed in range(8):
            session.simulate(SimulateRequest(n_photons=3000, seed=seed))
        session.simulate(request)
        pooled = canonical_answer_bytes(session.simulate(request))
        faults = [r.faults for r in session._pool.last_shard_results]
    with RenderSession("computer-lab") as serial:
        expected = canonical_answer_bytes(serial.simulate(request))
    assert len(faults) == 2
    assert max(faults) <= WARM_SHARD_FAULTS, faults
    assert pooled == expected
    assert leaked_segments() == []


class _FakeMallopt:
    def __init__(self) -> None:
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class TestRetainWorkerHeap:
    def test_sets_both_thresholds(self):
        libc = SimpleNamespace(mallopt=_FakeMallopt())
        procpool._retain_worker_heap(lambda name: libc)
        assert libc.mallopt.calls == [
            (procpool._M_MMAP_THRESHOLD, 32 << 20),
            (procpool._M_TRIM_THRESHOLD, 64 << 20),
        ]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_libc_without_mallopt_is_a_no_op(self):
        procpool._retain_worker_heap(lambda name: object())

    def test_failing_loader_is_a_no_op(self):
        def load(name):
            raise OSError(f"{name}: cannot open shared object file")

        procpool._retain_worker_heap(load)
