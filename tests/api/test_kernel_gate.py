"""The kernel gate: one in-process kernel section at a time.

What the gate promises beyond "a lock around the trace": a request the
cache already answers never waits at it; a miss looks the cache up
*after* taking it, so two threads on one never-seen key trace it once;
it is never held across a wait on pool workers or between stream
chunks, while a pooled run takes it around each shard's tally; and a
kernel section that raises leaves it free.  Every answer
stays its cold bytes throughout.
"""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.api.gate import KERNEL_GATE, KernelGate
from repro.parallel import procpool, resultplane
from repro.parallel.shmplane import leaked_segments, plane_available
from tests.api.test_amortize import forest_bytes
from tests.scenehelpers import build_mini_scene

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)

AMORTIZE = SessionOptions(amortize=True)
WAIT = 30.0  # every join/wait below is bounded by this


def cold_bytes(scene, request: SimulateRequest) -> str:
    with RenderSession(scene) as reference:
        return forest_bytes(reference.simulate(request))


def run_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def joined(thread: threading.Thread) -> bool:
    thread.join(timeout=WAIT)
    return not thread.is_alive()


class BlockedTracer:
    """Wraps an engine's ``run``, which traces every range a serve adds
    to a forest: the first call parks inside the kernel section until
    released."""

    def __init__(self, engine) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self._real = engine.run
        engine.run = self

    def __call__(self, config, *grown):
        self.entered.set()
        assert self.release.wait(WAIT)
        return self._real(config, *grown)


class TestCounters:
    def test_contended_counts_only_acquires_that_found_it_held(self):
        class TellingLock:
            """A lock that says when a non-blocking try was refused."""

            def __init__(self) -> None:
                self._lock = threading.Lock()
                self.refused = threading.Event()

            def acquire(self, blocking=True):
                got = self._lock.acquire(blocking)
                if not got:
                    self.refused.set()
                return got

            def release(self):
                self._lock.release()

        def take():
            with gate:
                pass

        gate = KernelGate()
        gate._lock = lock = TellingLock()
        take()
        assert gate.snapshot() == {"acquired": 1, "contended": 0}
        with gate:
            waiter = run_thread(take)
            assert lock.refused.wait(WAIT)
        assert joined(waiter)
        assert gate.snapshot() == {"acquired": 3, "contended": 1}


class TestSingleFlight:
    def test_two_threads_on_one_new_key_trace_it_once(self):
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        cache = program.forest_cache()
        request = SimulateRequest(n_photons=320, seed=0xD0B1E)
        barrier = threading.Barrier(2)
        results = {}

        # Whoever traces first may not finish before the other thread
        # has probed the cache and missed too — the in-flight duplicate
        # a lookup made before the gate would trace a second time.
        both_probed = threading.Event()
        probes = []
        real_peek = cache.peek

        def peek(key, n):
            probes.append(key)
            if len(probes) == 2:
                both_probed.set()
            return real_peek(key, n)

        cache.peek = peek

        traced = []  # the held-back runs: exactly the one cold trace

        def after_both_probed(engine):
            real = engine.run

            def run(config, *grown):
                assert both_probed.wait(WAIT)
                traced.append(config.n_photons)
                return real(config, *grown)

            engine.run = run

        with RenderSession(program, AMORTIZE) as one, RenderSession(
            program, AMORTIZE
        ) as two:
            after_both_probed(one._engine_for(None))
            after_both_probed(two._engine_for(None))
            before = program.amortize_stats()

            def client(name, session):
                barrier.wait(timeout=WAIT)
                results[name] = session.simulate(request)

            threads = [
                run_thread(lambda: client("one", one)),
                run_thread(lambda: client("two", two)),
            ]
            assert all(joined(thread) for thread in threads)
            after = program.amortize_stats()
            assert traced == [320]
            assert sorted(
                (one.last_photons_traced, two.last_photons_traced)
            ) == [0, 320]
            traced_tests = (
                one._engine_for(None).patch_tests
                + two._engine_for(None).patch_tests
            )
        assert after["exact_hits"] == before["exact_hits"] + 1
        assert after["photons_saved"] == before["photons_saved"] + 320
        assert after["topups"] == before["topups"]
        # The second caller shares the first one's forest, and both are
        # the cold answer; the kernel ran for one request's photons.
        assert results["one"].forest is results["two"].forest
        assert forest_bytes(results["one"]) == cold_bytes(scene, request)
        with RenderSession(scene) as reference:
            reference.simulate(request)
            assert traced_tests == reference._engine_for(None).patch_tests


class TestHitsNeverWait:
    def test_cached_answers_return_while_a_kernel_section_is_held(self):
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        warm = SimulateRequest(n_photons=256, seed=1)
        stop = SimulateRequest(n_photons=100_000, seed=1, target_rel_error=10.0)
        slow = SimulateRequest(n_photons=128, seed=2)
        served = {}

        def read(reader):
            served["hit"] = reader.simulate(warm)
            served["hit_traced"] = reader.last_photons_traced
            served["stop"] = reader.simulate(stop)
            served["stop_traced"] = reader.last_photons_traced

        with RenderSession(program, AMORTIZE) as tracer, RenderSession(
            program, AMORTIZE
        ) as reader:
            first = reader.simulate(warm)
            blocked = BlockedTracer(tracer._engine_for(None))
            held = run_thread(lambda: tracer.simulate(slow))
            try:
                assert blocked.entered.wait(WAIT)
                before = KERNEL_GATE.snapshot()
                # On a thread of its own, so a reader that did wait at
                # the gate fails the join instead of hanging the suite.
                assert joined(run_thread(lambda: read(reader)))
                # Neither serve so much as tried the gate, still held.
                assert KERNEL_GATE.snapshot() == before
                assert KERNEL_GATE.locked()
            finally:
                blocked.release.set()
            assert joined(held)
        assert served["hit"].forest is first.forest
        assert served["stop"].forest is first.forest
        assert served["stop"].early_stopped
        assert (served["hit_traced"], served["stop_traced"]) == (0, 0)
        assert not KERNEL_GATE.locked()

    def test_acquired_counts_the_serves_that_traced_or_rendered(self):
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            base = SimulateRequest(n_photons=128, seed=3)
            more = SimulateRequest(n_photons=256, seed=3)
            stop = SimulateRequest(
                n_photons=100_000, seed=3, target_rel_error=10.0
            )

            def acquired(serve) -> int:
                before = KERNEL_GATE.snapshot()["acquired"]
                serve()
                return KERNEL_GATE.snapshot()["acquired"] - before

            assert acquired(lambda: session.simulate(base)) == 1  # cold
            assert acquired(lambda: session.simulate(base)) == 0  # exact hit
            assert acquired(lambda: session.simulate(more)) == 1  # top-up
            assert acquired(lambda: session.simulate(stop)) == 0  # converged
            # Camera-only: the simulate inside is a hit, the render is not.
            assert acquired(
                lambda: session.render_view(more, width=8, height=6)
            ) == 1
            # A cold render_view traces, then renders: two sections.
            assert acquired(
                lambda: session.render_view(
                    SimulateRequest(n_photons=64, seed=4), width=8, height=6
                )
            ) == 2


@needs_plane
class TestPoolWaits:
    def test_gate_is_not_held_across_a_pool_wait(self):
        """A ``workers=2`` session parked inside its pool's ``starmap``
        holds no gate: a serial session's trace completes meanwhile."""

        class ParkedStarmap:
            def __init__(self, real) -> None:
                self.entered = threading.Event()
                self.release = threading.Event()
                self._real = real

            def starmap(self, fn, jobs):
                self.entered.set()
                assert self.release.wait(WAIT)
                return self._real.starmap(fn, jobs)

            def __getattr__(self, name):
                return getattr(self._real, name)

        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        pooled_request = SimulateRequest(n_photons=192, seed=11)
        serial_request = SimulateRequest(n_photons=192, seed=12)
        results = {}
        pooled_options = SessionOptions(workers=2, amortize=True)
        with RenderSession(program, pooled_options) as pooled, RenderSession(
            program, AMORTIZE
        ) as serial:
            pooled.simulate(SimulateRequest(n_photons=64, seed=10))  # spawn
            parked = ParkedStarmap(pooled._pool._pool)
            pooled._pool._pool = parked
            waiting = run_thread(
                lambda: results.update(pooled=pooled.simulate(pooled_request))
            )
            try:
                assert parked.entered.wait(WAIT)
                assert not KERNEL_GATE.locked()
                results["serial"] = serial.simulate(serial_request)
                assert serial.last_photons_traced == 192
                assert waiting.is_alive()
            finally:
                parked.release.set()
            assert joined(waiting)
            assert pooled.last_photons_traced == 192
        assert forest_bytes(results["pooled"]) == cold_bytes(scene, pooled_request)
        assert forest_bytes(results["serial"]) == cold_bytes(scene, serial_request)
        assert not KERNEL_GATE.locked()
        assert leaked_segments() == []


def _parked_shard(release: str, *job):
    """A pool job that waits for the file *release* before tracing."""
    while not os.path.exists(release):
        time.sleep(0.005)
    return procpool._trace_shard_pooled(*job)


class ParkedShards:
    """Wraps a pool's workers: every shard parks until released."""

    def __init__(self, real, release: str) -> None:
        self.called = threading.Event()
        self._real = real
        self._release = release

    def starmap(self, fn, jobs):
        self.called.set()
        return self._real.starmap(
            _parked_shard, [(self._release, *job) for job in jobs]
        )

    def __getattr__(self, name):
        return getattr(self._real, name)


@needs_plane
class TestPooledTally:
    """A one-shot ``workers=2`` serve: the parent's per-shard tallies are
    kernel sections, the waits on the workers are not."""

    OPTIONS = SessionOptions(workers=2)

    def test_each_shard_tally_takes_the_gate_once(self):
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=192, seed=41)
        with RenderSession(scene, self.OPTIONS) as session:
            session.simulate(SimulateRequest(n_photons=64, seed=40))  # spawn
            before = KERNEL_GATE.snapshot()["acquired"]
            answer = session.simulate(request)
            assert KERNEL_GATE.snapshot()["acquired"] - before == 2
            assert len(session._pool.last_shard_results) == 2
        assert forest_bytes(answer) == cold_bytes(scene, request)
        assert not KERNEL_GATE.locked()

    def test_the_cache_does_not_change_a_cold_serves_gate_count(self):
        """With the cache or without it, a cold pooled serve takes the
        gate for its shard tallies and nothing else."""
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=192, seed=43)
        deltas = {}
        for amortize in (False, True):
            options = SessionOptions(workers=2, amortize=amortize)
            # A program of its own: the request is cold on both routes.
            with RenderSession(SceneProgram(scene), options) as session:
                session.simulate(SimulateRequest(n_photons=64, seed=40))
                before = KERNEL_GATE.snapshot()["acquired"]
                answer = session.simulate(request)
                deltas[amortize] = KERNEL_GATE.snapshot()["acquired"] - before
                assert session.last_photons_traced == 192
            assert forest_bytes(answer) == cold_bytes(scene, request)
        assert deltas[True] == deltas[False] == 2

    def test_another_thread_takes_the_gate_while_workers_trace(self, tmp_path):
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=192, seed=42)
        release = str(tmp_path / "release")
        results = {}
        with RenderSession(scene, self.OPTIONS) as session:
            session.simulate(SimulateRequest(n_photons=64, seed=40))  # spawn
            parked = ParkedShards(session._pool._pool, release)
            session._pool._pool = parked
            waiting = run_thread(
                lambda: results.update(answer=session.simulate(request))
            )
            took = threading.Event()

            def take_gate() -> None:
                with KERNEL_GATE:
                    took.set()

            try:
                assert parked.called.wait(WAIT)
                time.sleep(0.05)  # the serve is now waiting on its shards
                probe = run_thread(take_gate)
                assert took.wait(WAIT)
                assert joined(probe)
                assert waiting.is_alive()
            finally:
                open(release, "w").close()
            assert joined(waiting)
        assert forest_bytes(results["answer"]) == cold_bytes(scene, request)
        assert not KERNEL_GATE.locked()
        assert leaked_segments() == []


class TestRaisingSections:
    def test_raising_tracer_frees_the_gate(self):
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=200, seed=21)
        with RenderSession(scene, AMORTIZE) as session:
            engine = session._engine_for(None)
            real = engine.run

            def boom(config, *grown):
                engine.run = real
                raise RuntimeError("tracer fell over")

            engine.run = boom
            with pytest.raises(RuntimeError, match="fell over"):
                session.simulate(request)
            assert not KERNEL_GATE.locked()
            # Nothing half-traced reached the cache: the retry is cold.
            answer = session.simulate(request)
            assert session.last_photons_traced == 200
        assert forest_bytes(answer) == cold_bytes(scene, request)

    @needs_plane
    def test_enospc_inside_a_pool_wait_frees_the_gate(self, enospc_once):
        """The result blocks are allocated inside the ungated pool wait;
        the failure passes back through the gate and out."""
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=200, seed=22)
        options = SessionOptions(workers=2, amortize=True)
        with RenderSession(scene, options) as session:
            refused = enospc_once(resultplane)
            with pytest.raises(OSError) as raised:
                session.simulate(request)
            assert raised.value.errno == errno.ENOSPC
            assert not KERNEL_GATE.locked()
            answer = session.simulate(request)
        assert len(refused) == 1
        assert forest_bytes(answer) == cold_bytes(scene, request)
        assert leaked_segments() == []


class TestStreams:
    def test_chunks_of_two_streams_interleave(self):
        """The gate is taken per chunk: with both streams in flight,
        either can take the next step, and nothing is held in between."""
        scene = build_mini_scene()
        requests = (
            SimulateRequest(n_photons=256, seed=31),
            SimulateRequest(n_photons=192, seed=32),
        )
        with RenderSession(scene, AMORTIZE) as one, RenderSession(
            scene, AMORTIZE
        ) as two:
            before = KERNEL_GATE.snapshot()["acquired"]
            streams = [
                one.simulate_stream(requests[0], 64),
                two.simulate_stream(requests[1], 64),
            ]
            finals = [None, None]
            order = []
            live = [0, 1]
            while live:
                for index in list(live):
                    try:
                        finals[index] = next(streams[index])
                    except StopIteration:
                        live.remove(index)
                        continue
                    order.append(index)
                    # Held across the yield, the other stream's next
                    # step (this same thread) would never get it.
                    assert not KERNEL_GATE.locked()
            assert order == [0, 1, 0, 1, 0, 1, 0]
            assert KERNEL_GATE.snapshot()["acquired"] == before + len(order)
            for final, request in zip(finals, requests):
                assert forest_bytes(final) == cold_bytes(scene, request)
                assert final.forest.photons_emitted == request.n_photons
