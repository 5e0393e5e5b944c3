"""The kernel gate and the cache's flights: one concurrency rule on
every route.

What the two promise, whatever a session's worker count: a request the
cache already answers takes neither; any other serve holds its trace
key's flight from a second lookup to its store, so two threads on one
never-seen key trace it once; the gate wraps kernel sections only — it
is never held across a wait on pool workers or between stream chunks,
while a pooled run takes it around each shard's tally; and a section
that raises leaves both free.  Every answer stays its cold bytes
throughout.
"""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.api import RenderSession, SceneProgram, SessionOptions, SimulateRequest
from repro.api.amortize import trace_key
from repro.api.gate import KERNEL_GATE, KernelGate
from repro.api.requests import merge_config
from repro.core import vectorized
from repro.parallel import procpool, resultplane
from repro.parallel.shmplane import leaked_segments, plane_available
from tests.api.test_amortize import forest_bytes
from tests.scenehelpers import build_mini_scene

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)

AMORTIZE = SessionOptions(amortize=True)
WAIT = 30.0  # every join/wait below is bounded by this

#: Both routes: an in-process engine and a two-worker pool.
WORKERS = [1, pytest.param(2, marks=needs_plane)]


def amortized(workers: int) -> SessionOptions:
    return SessionOptions(workers=workers, amortize=True)


def key_of(request: SimulateRequest) -> tuple:
    return trace_key(merge_config(request, AMORTIZE))


def spawn(*sessions) -> None:
    """Start pooled sessions' workers on a key no test asks for."""
    for session in sessions:
        if session.options.workers > 1:
            session.simulate(SimulateRequest(n_photons=64, seed=0xFEED))


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


class HeldTraces:
    """Wraps a session's ``_trace`` — every photon range a serve traces,
    on an engine or a pool: each call waits for *go* first, then is
    booked in *traced* as its photon count."""

    def __init__(self, session, go: threading.Event, traced: list) -> None:
        self.entered = threading.Event()
        self._go, self._traced, self._real = go, traced, session._trace
        session._trace = self

    def __call__(self, config, forest, start, *rest):
        self.entered.set()
        assert self._go.wait(WAIT)
        self._traced.append(config.n_photons - start)
        return self._real(config, forest, start, *rest)


class TestSingleFlight:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_two_threads_on_one_new_key_trace_it_once(self, workers):
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        cache = program.forest_cache()
        request = SimulateRequest(n_photons=320, seed=0xD0B1E)
        barrier = threading.Barrier(2)
        results = {}

        # Whoever traces first may not finish before the other thread
        # has looked the key up and missed too — the duplicate a
        # lookup-then-trace with no flight would trace a second time.
        both_missed = threading.Event()
        lookers = set()
        real_lookup = cache.lookup

        def lookup(key, n):
            lookers.add(threading.get_ident())
            if len(lookers) == 2:
                both_missed.set()
            return real_lookup(key, n)

        traced = []  # the held-back traces: exactly the one cold trace
        options = amortized(workers)
        with RenderSession(program, options) as one, RenderSession(
            program, options
        ) as two:
            spawn(one, two)
            HeldTraces(one, both_missed, traced)
            HeldTraces(two, both_missed, traced)
            cache.lookup = lookup
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
        assert after["exact_hits"] == before["exact_hits"] + 1
        assert after["photons_saved"] == before["photons_saved"] + 320
        assert after["topups"] == before["topups"]
        # The second caller shares the first one's forest, both are the
        # cold answer, and no flight outlives the two serves.
        assert results["one"].forest is results["two"].forest
        assert forest_bytes(results["one"]) == cold_bytes(scene, request)
        assert cache._flights == {}
        assert not KERNEL_GATE.locked()

    @pytest.mark.parametrize("workers", WORKERS)
    def test_a_smaller_budget_behind_a_larger_flight_traces_cold(
        self, workers
    ):
        """A 128-photon serve that waited out a 320-photon flight on its
        key finds an entry too large to start from, and traces cold."""
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        cache = program.forest_cache()
        large = SimulateRequest(n_photons=320, seed=0x5A11)
        small = SimulateRequest(n_photons=128, seed=0x5A11)
        go, traced, results = threading.Event(), [], {}
        options = amortized(workers)
        with RenderSession(program, options) as one, RenderSession(
            program, options
        ) as two:
            spawn(one, two)
            held = HeldTraces(one, go, traced)
            HeldTraces(two, go, traced)
            first = run_thread(lambda: results.update(large=one.simulate(large)))
            try:
                assert held.entered.wait(WAIT)
                second = run_thread(
                    lambda: results.update(small=two.simulate(small))
                )
                deadline = time.monotonic() + WAIT
                # The large serve holds the key's flight; the small one
                # is counted once it waits on it.
                while cache._flights.get(key_of(small), [None, 0])[1] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            finally:
                go.set()
            assert joined(first) and joined(second)
            assert traced == [320, 128]
            assert two.last_photons_traced == 128
        assert forest_bytes(results["small"]) == cold_bytes(scene, small)
        assert forest_bytes(results["large"]) == cold_bytes(scene, large)
        assert cache._flights == {}


class TestHitsNeverWait:
    def test_cached_answers_return_while_a_kernel_section_is_held(self):
        """An exact repeat and a first check point within the target are
        answered while another serve holds the gate and the answers' own
        key is in flight: they take neither."""
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        warm = SimulateRequest(n_photons=vectorized.PHOTONS_IN_FLIGHT, seed=1)
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
                # the gate or the flight fails the join instead of
                # hanging the suite.
                with program.forest_cache().flight(key_of(warm)):
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

    def test_acquired_counts_the_kernel_sections(self):
        """One acquisition per kernel section: a wave, a top-up's copy, a
        convergence check, a render; none for a serve the cache answers."""
        check = vectorized.PHOTONS_IN_FLIGHT
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            base = SimulateRequest(n_photons=128, seed=3)
            more = SimulateRequest(n_photons=256, seed=3)
            stop = SimulateRequest(
                n_photons=100_000, seed=3, target_rel_error=10.0
            )
            unreached = SimulateRequest(
                n_photons=check + 64, seed=5, target_rel_error=1e-9
            )

            def acquired(serve) -> int:
                before = KERNEL_GATE.snapshot()["acquired"]
                serve()
                return KERNEL_GATE.snapshot()["acquired"] - before

            assert acquired(lambda: session.simulate(base)) == 1  # cold
            assert acquired(lambda: session.simulate(base)) == 0  # exact hit
            # A top-up: the copy, then the wave.
            assert acquired(lambda: session.simulate(more)) == 2
            # Camera-only: the simulate inside is a hit, the render is not.
            assert acquired(
                lambda: session.render_view(more, width=8, height=6)
            ) == 1
            # Grown to the first check point: copy, wave, check.
            assert acquired(lambda: session.simulate(stop)) == 3
            assert session.last_photons_traced == check - 256
            assert acquired(lambda: session.simulate(stop)) == 0  # converged
            # One acquisition per step and one per check: two of each.
            assert acquired(lambda: session.simulate(unreached)) == 4
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
    @pytest.mark.parametrize("workers", WORKERS)
    def test_raising_tally_frees_the_gate_and_the_flight(
        self, monkeypatch, workers
    ):
        """A tally that raises inside its kernel section — the engine's
        or a pool shard's — leaves the gate and the key's flight free,
        and nothing half-traced in the cache."""
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        request = SimulateRequest(n_photons=200, seed=21)
        real = vectorized.tally_block

        def boom(*args):
            monkeypatch.setattr(vectorized, "tally_block", real)
            monkeypatch.setattr(procpool, "tally_block", real)
            raise RuntimeError("tally fell over")

        with RenderSession(program, amortized(workers)) as session:
            spawn(session)
            monkeypatch.setattr(vectorized, "tally_block", boom)
            monkeypatch.setattr(procpool, "tally_block", boom)
            with pytest.raises(RuntimeError, match="fell over"):
                session.simulate(request)
            assert not KERNEL_GATE.locked()
            assert program.forest_cache()._flights == {}
            # Nothing half-traced reached the cache: the retry is cold.
            answer = session.simulate(request)
            assert session.last_photons_traced == 200
        assert forest_bytes(answer) == cold_bytes(scene, request)
        assert leaked_segments() == []

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
