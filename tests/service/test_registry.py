"""ProgramRegistry: LRU residency, budgets, graceful eviction.

The registry's entries are the scenes' session pools.  The eviction
contract sits on the program's refcounted plane one layer down:
evicting a program retires its pool, but a session still checked out
keeps the program's ``/dev/shm`` segment alive until *it* closes — the
segment unlinks on the last release, never under an in-flight request,
and the registry reports the pool as draining until then.  A
re-admitted spec compiles fresh and, by determinism, answers with
byte-identical JSON.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import (
    SceneProgram,
    SessionOptions,
    SimulateRequest,
)
from repro.core import forest_to_dict
from repro.parallel.shmplane import leaked_segments, plane_available
from repro.scenes import get_scene
from repro.service import ProgramRegistry, SessionPool, program_nbytes

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)

REQUEST = SimulateRequest(n_photons=200, seed=0xFEED)


def make_factory(options=None, calls=None, **pool_kwargs):
    async def factory(spec: str) -> SessionPool:
        if calls is not None:
            calls.append(spec)
        program = SceneProgram.compile(get_scene(spec), eager=True)
        return SessionPool(program, options, label=spec, **pool_kwargs)

    return factory


def run(coro):
    return asyncio.run(coro)


class TestResidency:
    def test_lru_eviction_order(self, mini_scene):
        async def main():
            calls = []
            registry = ProgramRegistry(
                make_factory(calls=calls), max_programs=2
            )
            await registry.get("cornell-box")
            await registry.get("gen:office-4@1")
            # Refresh cornell's recency; the office scene is now LRU.
            await registry.get("cornell-box")
            await registry.get("gen:den-4@2")
            assert registry.resident_specs() == [
                "cornell-box", "gen:den-4@2"
            ]
            assert registry.evictions == 1
            assert calls == [
                "cornell-box", "gen:office-4@1", "gen:den-4@2"
            ]
            assert registry.hits == 1 and registry.misses == 3
            await registry.close(force=True)

        run(main())

    def test_byte_budget_eviction(self):
        async def main():
            registry = ProgramRegistry(make_factory(), max_programs=8)
            first = await registry.get("gen:office-4@1")
            # Budget only fits one program: admitting a second evicts
            # the first, but the newest always stays (floor of one).
            registry.max_bytes = program_nbytes(first.program) + 1
            second = await registry.get("gen:den-4@2")
            assert registry.resident_specs() == ["gen:den-4@2"]
            assert registry.resident_bytes() == program_nbytes(second.program)
            await registry.close(force=True)

        run(main())

    def test_single_flight_admission(self):
        async def main():
            calls = []
            registry = ProgramRegistry(make_factory(calls=calls))
            results = await asyncio.gather(
                *(registry.get("cornell-box") for _ in range(5))
            )
            assert calls == ["cornell-box"]
            assert all(r is results[0] for r in results)
            await registry.close(force=True)

        run(main())

    def test_failed_admission_retries(self):
        async def main():
            attempts = []

            async def flaky(spec: str) -> SessionPool:
                attempts.append(spec)
                if len(attempts) == 1:
                    raise RuntimeError("boom")
                program = SceneProgram.compile(get_scene(spec))
                return SessionPool(program, label=spec)

            registry = ProgramRegistry(flaky)
            with pytest.raises(RuntimeError):
                await registry.get("cornell-box")
            assert registry.resident_specs() == []
            entry = await registry.get("cornell-box")
            assert entry.label == "cornell-box"
            assert len(attempts) == 2
            await registry.close(force=True)

        run(main())

    def test_explicit_evict(self):
        async def main():
            registry = ProgramRegistry(make_factory())
            await registry.get("cornell-box")
            assert await registry.evict("cornell-box")
            assert not await registry.evict("cornell-box")
            assert registry.resident_specs() == []
            await registry.close(force=True)

        run(main())


class TestDrainingOwnership:
    """An evicted pool with a session out belongs to the registry until
    its last session closes, and no longer."""

    def test_draining_until_the_last_release(self):
        async def main():
            registry = ProgramRegistry(make_factory(max_sessions=2))
            pool = await registry.get("cornell-box")
            first = await pool.acquire()
            second = await pool.acquire()
            await registry.evict("cornell-box")
            assert registry.stats()["draining"] == ["cornell-box"]
            await pool.release(first)
            assert registry.stats()["draining"] == ["cornell-box"]
            await pool.release(second)
            assert first._closed and second._closed
            assert registry.stats()["draining"] == []
            await registry.close(force=True)

        run(main())

    def test_idle_pool_is_forgotten_at_eviction(self):
        async def main():
            registry = ProgramRegistry(make_factory())
            pool = await registry.get("cornell-box")
            await pool.release(await pool.acquire())
            await registry.evict("cornell-box")
            assert registry.stats()["draining"] == []
            await registry.close(force=True)

        run(main())

    def test_forced_close_retires_draining_pools(self):
        async def main():
            registry = ProgramRegistry(make_factory())
            pool = await registry.get("cornell-box")
            held = await pool.acquire()
            await registry.evict("cornell-box")
            await registry.close(force=True)
            assert held._closed
            assert registry.stats()["draining"] == []

        run(main())

    def test_graceful_close_drains_like_an_eviction(self):
        async def main():
            registry = ProgramRegistry(make_factory())
            pool = await registry.get("cornell-box")
            held = await pool.acquire()
            await registry.close()
            assert registry.stats()["draining"] == ["cornell-box"]
            await pool.release(held)
            assert held._closed
            assert registry.stats()["draining"] == []

        run(main())


@needs_plane
class TestEvictionSegmentContract:
    """The satellite contract: evict with a live session, then re-admit."""

    OPTIONS = SessionOptions(workers=2)

    def test_segment_survives_until_last_release(self):
        async def main():
            loop = asyncio.get_running_loop()
            registry = ProgramRegistry(
                make_factory(self.OPTIONS), max_programs=1
            )
            entry = await registry.get("cornell-box")
            session = await entry.acquire()
            # A multi-process request provisions the worker pool and
            # publishes the program's plane; the session now holds one
            # reference on the segment.
            first = await loop.run_in_executor(
                None, session.simulate, REQUEST
            )
            program = entry.program
            [segment] = [s for s in leaked_segments() if "-result-" not in s]
            assert program.plane_refs >= 1

            # Evict while the session is checked out: the pool drains,
            # but the segment must survive — the session still serves.
            await registry.get("gen:office-4@5")
            assert registry.resident_specs() == ["gen:office-4@5"]
            assert entry.draining
            assert segment in leaked_segments()
            second = await loop.run_in_executor(
                None, session.simulate, REQUEST
            )

            # Last release closes the session and unlinks the segment.
            await entry.release(session)
            assert session._closed
            assert program.plane_refs == 0
            assert segment not in leaked_segments()

            # Re-admission compiles fresh; determinism makes the round
            # trip invisible in the answer bytes.
            readmitted = await registry.get("cornell-box")
            assert readmitted is not entry
            fresh = await registry.get("cornell-box")
            assert fresh is readmitted
            session2 = await readmitted.acquire()
            third = await loop.run_in_executor(
                None, session2.simulate, REQUEST
            )
            await readmitted.release(session2)
            await registry.close(force=True)

            answers = [
                json.dumps(forest_to_dict(r.forest))
                for r in (first, second, third)
            ]
            assert answers[0] == answers[1] == answers[2]

        run(main())
        assert leaked_segments() == []
