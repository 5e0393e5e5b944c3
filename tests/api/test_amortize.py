"""Cross-request amortization: exactness is the whole point.

The forest cache may only ever *save work*, never change an answer:
a topped-up serve must be byte-identical to a cold full-budget run on
every worker count and wave width, a camera-only render must reuse the
trace without touching it, and an early-stopped answer must be the
exact canonical answer for the photons actually traced.  These tests
pin each of those contracts plus the cache mechanics (bounds,
monotonic growth, counter bookkeeping) behind them, and the sharing
rule that makes a hit free: hits share the cached forest, the first
extension copies it, nothing reachable from the cache is mutated —
also with several sessions hammering one trace key from threads.
"""

from __future__ import annotations

import collections
import json
import sys
import threading

import numpy as np
import pytest

from repro.api import (
    RenderSession,
    SceneProgram,
    SessionOptions,
    SimulateRequest,
)
from repro.api.amortize import (
    DEFAULT_FOREST_CACHE_ENTRIES,
    CachedTrace,
    ForestCache,
    trace_key,
)
from repro.api.gate import KERNEL_GATE
from repro.api.requests import merge_config
from repro.core import forest_to_dict, vectorized
from repro.core.bintree import SplitPolicy
from repro.core.vectorized import VectorEngine
from repro.parallel.shmplane import plane_available
from repro.scenes import get_scene
from tests.api.test_session_stream import assert_counts_describe_the_forest
from tests.core.test_wave import spy_widths
from tests.scenehelpers import build_mini_scene

needs_plane = pytest.mark.skipif(
    not plane_available(), reason="no multiprocessing.shared_memory here"
)

AMORTIZE = SessionOptions(amortize=True)


def forest_bytes(result) -> str:
    return json.dumps(forest_to_dict(result.forest), sort_keys=True)


class TestTraceKey:
    """The key splits trace identity from provisioning and budget."""

    def test_camera_budget_worker_free(self):
        base = merge_config(SimulateRequest(n_photons=100), SessionOptions())
        for request, options in (
            (SimulateRequest(n_photons=9999), SessionOptions()),
            (SimulateRequest(n_photons=100), SessionOptions(workers=3)),
        ):
            other = merge_config(request, options)
            assert trace_key(other) == trace_key(base)

    def test_identity_fields_split_the_key(self):
        base = merge_config(SimulateRequest(n_photons=100), SessionOptions())
        assert trace_key(base) == (base.policy, base.fluorescence, base.seed)
        for request, options in (
            (SimulateRequest(n_photons=100, seed=7), SessionOptions()),
            (
                SimulateRequest(
                    n_photons=100, policy=SplitPolicy(threshold=9.0)
                ),
                SessionOptions(),
            ),
        ):
            other = merge_config(request, options)
            assert trace_key(other) != trace_key(base)


class TestForestCacheMechanics:
    def test_lookup_only_returns_reusable_prefixes(self):
        cache = ForestCache()
        cache.store(("k",), 200, "forest")
        assert cache.lookup(("k",), 500).n == 200  # smaller seeds larger
        assert cache.lookup(("k",), 200).n == 200  # equal: exact hit
        assert cache.lookup(("k",), 100) is None  # cannot truncate
        assert cache.lookup(("other",), 500) is None

    def test_store_keeps_only_growth(self):
        cache = ForestCache()
        cache.store(("k",), 200, "big")
        cache.store(("k",), 100, "small")  # ignored: shrinks
        cache.store(("k",), 0, "none")  # ignored: empty
        assert cache.lookup(("k",), 200).forest == "big"
        cache.store(("k",), 300, "bigger")
        assert cache.lookup(("k",), 300).forest == "bigger"

    def test_bounded_lru_eviction(self):
        cache = ForestCache(max_entries=2)
        cache.store(("a",), 1, "fa")
        cache.store(("b",), 1, "fb")
        assert cache.lookup(("a",), 9) is not None  # refresh a
        cache.store(("c",), 1, "fc")  # b is LRU now
        assert cache.lookup(("b",), 9) is None
        assert cache.lookup(("a",), 9) is not None
        assert cache.lookup(("c",), 9) is not None

    def test_counters(self):
        cache = ForestCache()
        cache.record_serve(100, 50, False)  # top-up
        cache.record_serve(150, 0, False)  # exact hit
        cache.record_serve(0, 80, True)  # cold early stop
        cache.record_camera_only()
        snap = cache.snapshot()
        assert snap["topups"] == 1
        assert snap["exact_hits"] == 1
        assert snap["photons_saved"] == 250
        assert snap["early_stops"] == 1
        assert snap["camera_only_hits"] == 1

    def test_entry_is_shared_not_copied(self):
        trace = CachedTrace(5, "forest")
        assert (trace.n, trace.forest) == (5, "forest")


#: A fresh scene (so a fresh program and cache) for each accelerator the
#: engine can pick: the 8-patch mini box gets the dense scan, the
#: harpsichord room is big enough for the flat walk.
SCENE_PICKING = {
    "linear": build_mini_scene,
    "flat": lambda: get_scene("harpsichord-room"),
}

# The exactness matrix: every session shape the golden suite pins — on a
# scene each side of the engine's accelerator choice, and at wave widths
# (PHOTONS_IN_FLIGHT, patched) far below the budget — must serve a
# topped-up answer byte-identical to its own cold run.
MATRIX = [
    pytest.param("flat", SessionOptions(amortize=True), None, id="vector-flat"),
    pytest.param("linear", SessionOptions(amortize=True), None,
                 id="vector-linear"),
    pytest.param("linear", SessionOptions(amortize=True), 7,
                 id="vector-linear-b7"),
    pytest.param("flat", SessionOptions(workers=2, amortize=True), None,
                 id="vector-flat-x2", marks=needs_plane),
    pytest.param("linear", SessionOptions(workers=3, amortize=True), 64,
                 id="vector-linear-x3", marks=needs_plane),
]


class TestTopUpExactness:
    @pytest.mark.parametrize("accel, options, width", MATRIX)
    def test_topped_up_bytes_equal_cold_bytes(
        self, monkeypatch, accel, options, width
    ):
        import dataclasses

        if width is not None:
            monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", width)
        build_scene = SCENE_PICKING[accel]
        cold_options = dataclasses.replace(options, amortize=False)
        with RenderSession(build_scene(), cold_options) as session:
            assert VectorEngine(arrays=session.program.arrays).accel == accel
            cold = session.simulate(SimulateRequest(n_photons=240))
        with RenderSession(build_scene(), options) as session:
            session.simulate(SimulateRequest(n_photons=96))
            assert session.last_photons_traced == 96
            topped = session.simulate(SimulateRequest(n_photons=240))
            # The tentpole claim: only the missing range was traced...
            assert session.last_photons_traced == 144
        # ...and the answer is still byte-for-byte the cold answer.
        assert forest_bytes(topped) == forest_bytes(cold)

    def test_topup_crosses_session_shapes(self, monkeypatch):
        """The trace key is provisioning-free: a forest traced at one
        wave width tops up a request served at another."""
        scene = build_mini_scene()
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 7)
        with RenderSession(scene, AMORTIZE) as session:
            session.simulate(SimulateRequest(n_photons=96))
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 64)
        with RenderSession(scene, AMORTIZE) as session:
            topped = session.simulate(SimulateRequest(n_photons=240))
            assert session.last_photons_traced == 144
        with RenderSession(build_mini_scene()) as session:
            cold = session.simulate(SimulateRequest(n_photons=240))
        assert forest_bytes(topped) == forest_bytes(cold)

    def test_exact_hit_traces_nothing(self):
        scene = build_mini_scene()
        with RenderSession(scene, AMORTIZE) as session:
            first = session.simulate(SimulateRequest(n_photons=200))
            again = session.simulate(SimulateRequest(n_photons=200))
            assert session.last_photons_traced == 0
            assert forest_bytes(again) == forest_bytes(first)
        stats = SceneProgram.compile(scene).amortize_stats()
        assert stats["exact_hits"] == 1
        assert stats["photons_saved"] == 200

    def test_smaller_budget_is_a_miss_not_a_truncation(self):
        """A cached larger forest cannot serve a smaller budget — a
        forest has no subtraction, so the request traces cold."""
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            session.simulate(SimulateRequest(n_photons=240))
            small = session.simulate(SimulateRequest(n_photons=96))
            assert session.last_photons_traced == 96
        with RenderSession(build_mini_scene()) as session:
            cold = session.simulate(SimulateRequest(n_photons=96))
        assert forest_bytes(small) == forest_bytes(cold)

    def test_stored_forest_survives_later_topups(self):
        """Top-ups deepcopy before extending: the forest a smaller
        result still holds must not grow behind its back, and the
        topped-up answer must not alias it."""
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            small = session.simulate(SimulateRequest(n_photons=96))
            small_bytes = forest_bytes(small)
            topped = session.simulate(SimulateRequest(n_photons=240))
            assert topped.forest is not small.forest
            assert topped.stats is not small.stats
            assert small.forest.photons_emitted == 96
            assert forest_bytes(small) == small_bytes


class CountingGate:
    """The kernel gate, counting each thread's acquisitions."""

    def __init__(self) -> None:
        self.taken = collections.Counter()

    def __enter__(self) -> None:
        KERNEL_GATE.__enter__()
        self.taken[threading.get_ident()] += 1

    def __exit__(self, *exc) -> None:
        KERNEL_GATE.__exit__(*exc)


def cached_entry(session, request):
    """The forest-cache entry *request* would be served from."""
    config = merge_config(request, session.options)
    return session.program.forest_cache().lookup(
        trace_key(config), config.n_photons
    )


@pytest.fixture
def deepcopies(monkeypatch):
    """Count the session module's ``copy.deepcopy`` calls."""
    import copy
    import types

    calls = []

    def counting(obj):
        calls.append(obj)
        return copy.deepcopy(obj)

    monkeypatch.setattr(
        "repro.api.session.copy", types.SimpleNamespace(deepcopy=counting)
    )
    return calls


class TestSharedHits:
    """Hits share the cached forest; only a top-up pays the deep copy."""

    def test_exact_hit_shares_the_forest_and_pays_no_patch_tests(
        self, deepcopies
    ):
        request = SimulateRequest(n_photons=200)
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            first = session.simulate(request)
            engine = session._engine_for(None)
            tested = engine.patch_tests
            # An equal-by-value request: the same forest object, and
            # not one more patch test paid for it.
            again = session.simulate(SimulateRequest(n_photons=200))
            assert again.forest is first.forest
            assert again.forest is cached_entry(session, request).forest
            assert again.stats == first.stats
            assert engine.patch_tests == tested
            assert session.requests_served == 2
        assert deepcopies == []

    def test_converged_early_stop_hit_shares_the_forest(self, deepcopies):
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            warm = session.simulate(SimulateRequest(n_photons=4096))
            stopped = session.simulate(
                SimulateRequest(n_photons=100_000, target_rel_error=0.5)
            )
            assert session.last_photons_traced == 0
            assert stopped.forest is warm.forest
            assert stopped.forest is cached_entry(
                session, SimulateRequest(n_photons=4096)
            ).forest
        assert deepcopies == []

    def test_camera_only_render_shares_the_forest(self, deepcopies):
        request = SimulateRequest(n_photons=300)
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            session.render_view(request, width=8, height=6)
            rendered = []
            render = session.render

            def spy(answer, *args, **kwargs):
                rendered.append(answer)
                return render(answer, *args, **kwargs)

            session.render = spy
            session.render_view(request, width=12, height=9)
            assert session.last_photons_traced == 0
            assert rendered[0].forest is cached_entry(session, request).forest
        assert deepcopies == []

    def test_topup_copies_exactly_once(self, deepcopies):
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            small = session.simulate(SimulateRequest(n_photons=96))
            assert deepcopies == []  # a cold serve has nothing to copy
            topped = session.simulate(SimulateRequest(n_photons=240))
            # One wave extends the prefix; one copy, before it.
            assert deepcopies == [small.forest]
            assert topped.forest is not small.forest
            assert topped.forest is cached_entry(
                session, SimulateRequest(n_photons=240)
            ).forest

    def test_amortize_is_opt_in(self):
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=200)
        with RenderSession(scene) as session:
            first = session.simulate(request)
            again = session.simulate(request)
            assert session.last_photons_traced == 200
            assert again.forest is not first.forest  # same bytes, re-traced
            assert forest_bytes(again) == forest_bytes(first)
        assert len(SceneProgram.compile(scene).forest_cache()) == 0

    def test_distinct_trace_keys_share_nothing(self):
        scene = build_mini_scene()
        with RenderSession(scene, AMORTIZE) as session:
            a = session.simulate(SimulateRequest(n_photons=200))
            b = session.simulate(SimulateRequest(n_photons=200, seed=7))
            assert session.last_photons_traced == 200
            assert b.forest is not a.forest
        assert len(SceneProgram.compile(scene).forest_cache()) == 2

    def test_entry_outlives_the_session_that_stored_it(self):
        """The cache is program-owned: a session opened after the first
        closed — differently provisioned, even — hits the first's entry."""
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=100)
        with RenderSession(scene, AMORTIZE) as session:
            first = session.simulate(request)
        with RenderSession(
            scene, SessionOptions(workers=2, amortize=True)
        ) as second:
            assert second.simulate(request).forest is first.forest
            assert second.last_photons_traced == 0

    def test_evicted_key_retraces_to_identical_bytes(self):
        evicted = SimulateRequest(n_photons=150)
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            first = session.simulate(evicted)
            for seed in range(1, DEFAULT_FOREST_CACHE_ENTRIES + 1):
                session.simulate(SimulateRequest(n_photons=20, seed=seed))
            # The bound's worth of younger keys pushed `evicted` out.
            assert cached_entry(session, evicted) is None
            again = session.simulate(evicted)
            assert session.last_photons_traced == 150
            # A fresh trace (new forest), but determinism means the
            # bound can never change an answer: identical bytes.
            assert again.forest is not first.forest
            assert forest_bytes(again) == forest_bytes(first)


class TestSharingUnderConcurrency:
    """Sessions on several threads, one trace key, one shared cache."""

    BUDGETS = (64, 128, 192, 256, 320)
    STOP = SimulateRequest(n_photons=100_000, target_rel_error=0.2)

    def test_interleaved_serves_never_mutate_a_served_forest(
        self, monkeypatch
    ):
        scene = build_mini_scene()
        program = SceneProgram.compile(scene)
        # Early stops check every 64 photons, so they land among the
        # budgets the other threads top up to.
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 64)
        held = []  # (result, bytes when served), across all threads
        images = []  # (budget, image)
        # (photons traced, gate acquisitions) per simulate and render_view
        served, rendered = [], []
        errors = []
        gate = CountingGate()
        monkeypatch.setattr("repro.api.session.KERNEL_GATE", gate)

        def client(turn: int) -> None:
            def gated(serve):
                before = gate.taken[threading.get_ident()]
                answer = serve()
                took = gate.taken[threading.get_ident()] - before
                return answer, (session.last_photons_traced, took)

            try:
                with RenderSession(program, AMORTIZE) as session:
                    # Each thread walks the budgets from its own offset,
                    # so exact hits, top-ups and oversized-entry misses
                    # all land on the one key in a racing order.
                    for step in range(2 * len(self.BUDGETS)):
                        n = self.BUDGETS[(turn + step) % len(self.BUDGETS)]
                        request = SimulateRequest(n_photons=n)
                        if step % 3 == 2:
                            image, counts = gated(lambda: session.render_view(
                                request, width=8, height=6
                            ))
                            images.append((n, image))
                            rendered.append(counts)
                        result, counts = gated(lambda: session.simulate(
                            self.STOP if step % 4 == 3 else request
                        ))
                        held.append((result, forest_bytes(result)))
                        served.append(counts)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force the threads to interleave
        try:
            threads = [
                threading.Thread(target=client, args=(turn,))
                for turn in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(held) == 4 * 2 * len(self.BUDGETS)
        # A serve took the kernel gate if and only if it traced — a
        # serve the cache answered, up front or once the key's flight
        # was free, took none — and every render took it once more.
        assert all((traced > 0) == (took > 0) for traced, took in served)
        assert all((traced > 0) == (took > 1) for traced, took in rendered)
        assert all(took >= 1 for _, took in rendered)
        assert not KERNEL_GATE.locked()
        assert program.forest_cache()._flights == {}

        cold = {}  # traced count -> (cold bytes, cold 8x6 image)
        with RenderSession(scene) as reference:

            def cold_answer(n: int):
                if n not in cold:
                    result = reference.simulate(SimulateRequest(n_photons=n))
                    image = reference.render(result, width=8, height=6)
                    cold[n] = forest_bytes(result), image
                return cold[n]

            # Cache history never moved a target answer off the cold one.
            stop = reference.simulate(self.STOP).config.n_photons
            assert stop < self.STOP.n_photons
            assert {
                result.config.n_photons for result, _ in held
                if result.photons_requested is not None
            } == {stop}
            for result, served_bytes in held:
                n = result.config.n_photons  # the traced prefix on a stop
                # Every answer was its cold bytes when served, and still
                # is now that every other serve has come and gone.
                assert result.forest.photons_emitted == n
                assert served_bytes == cold_answer(n)[0]
                assert forest_bytes(result) == served_bytes
            for n, image in images:
                assert np.array_equal(image, cold_answer(n)[1])
            entry = program.forest_cache().lookup(
                trace_key(merge_config(self.STOP, AMORTIZE)), 100_000
            )
            assert json.dumps(
                forest_to_dict(entry.forest), sort_keys=True
            ) == cold_answer(entry.n)[0]
        stats = program.amortize_stats()
        assert stats["exact_hits"] > 0 and stats["topups"] > 0
        assert stats["forest_entries"] == 1


class TestColdServeIsOneWave:
    """Whatever a request finds cached, its missing range is traced as
    one wave on the engine and one shard per worker on the pool — not
    ``PHOTONS_IN_FLIGHT``-photon chunks, each with its own tail — and no
    shards are concatenated on the way into the forest."""

    REQUEST = SimulateRequest(n_photons=10_000)

    @pytest.fixture
    def gathers(self, monkeypatch):
        """Every call of the pool's shard concatenation."""
        from repro.parallel import procpool

        calls = []
        real = procpool.gather_shards

        def gather_shards(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(procpool, "gather_shards", gather_shards)
        return calls

    def check_one_wave(self, cornell, workers, prefix, shards):
        """A fresh amortized session serves the 10k request after
        *prefix* photons: one wave, *shards* on a pool, cold bytes."""
        with RenderSession(cornell, SessionOptions(workers=workers)) as plain:
            expected = forest_bytes(plain.simulate(self.REQUEST))
        # A program of its own: a cache no other test has filled.
        program = SceneProgram(cornell)
        options = SessionOptions(workers=workers, amortize=True)
        with RenderSession(program, options) as session:
            if prefix:
                session.simulate(SimulateRequest(n_photons=prefix))
            widths = spy_widths(session._engine_for(None))
            result = session.simulate(self.REQUEST)
            assert session.last_photons_traced == 10_000 - prefix
            if workers == 1:
                assert 0 < len(widths) <= 20, widths
            else:
                landed = session._pool.last_shard_results
                assert [r.photons for r in landed] == shards
        assert forest_bytes(result) == expected
        entry = program.forest_cache().lookup(trace_key(result.config), 10_000)
        assert entry is not None and entry.n == 10_000

    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_plane),
    ])
    def test_cold_amortized_serve_is_the_plain_one(
        self, cornell, workers, gathers
    ):
        # Three 4,096-photon chunks, a tail each, took 44 calls.
        self.check_one_wave(cornell, workers, 0, [5_000, 5_000])
        assert gathers == []

    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_plane),
    ])
    def test_a_top_up_is_one_wave(self, cornell, workers, gathers):
        # The missing 9,000 photons in 4,096-photon chunks took 44 calls,
        # and the last of three chunks landed as [404, 404] shards.
        self.check_one_wave(cornell, workers, 1_000, [4_500, 4_500])
        assert gathers == []


class TestCountsFollowTheForest:
    """A result's trace counts are read off its forest, so a cold serve,
    an exact hit, a top-up and an early stop each count exactly the
    photons they answer with, as a fresh non-amortized session does."""

    #: ``(request, photons traced)`` in serving order on one program:
    #: cold, exact hit, top-up, an early stop the cache answers, an
    #: early stop topped up from the cache, and a top-up of that.
    ROUTES = [
        (SimulateRequest(n_photons=3_000, seed=5), 3_000),
        (SimulateRequest(n_photons=3_000, seed=5), 0),
        (SimulateRequest(n_photons=4_096, seed=5), 1_096),
        (SimulateRequest(n_photons=50_000, seed=5, target_rel_error=0.2), 0),
        (SimulateRequest(n_photons=50_000, seed=5, target_rel_error=0.125),
         4_096),
        (SimulateRequest(n_photons=10_000, seed=5), 1_808),
    ]

    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_plane),
    ])
    def test_every_route_counts_its_photons(self, cornell, workers):
        options = SessionOptions(workers=workers, amortize=True)
        with RenderSession(cornell, SessionOptions(workers=workers)) as plain, \
                RenderSession(SceneProgram(cornell), options) as session:
            traced = []
            for request, _ in self.ROUTES:
                result = session.simulate(request)
                traced.append(session.last_photons_traced)
                assert_counts_describe_the_forest(result)
                fresh = plain.simulate(request)
                assert result.config.n_photons == fresh.config.n_photons
                assert result.stats == fresh.stats
        assert traced == [photons for _, photons in self.ROUTES]


class TestEarlyStop:
    def test_early_stopped_answer_is_an_exact_prefix(self, monkeypatch):
        monkeypatch.setattr(vectorized, "PHOTONS_IN_FLIGHT", 64)
        with RenderSession(build_mini_scene()) as session:
            stopped = session.simulate(
                SimulateRequest(n_photons=100_000, target_rel_error=0.5)
            )
            assert stopped.early_stopped
            assert stopped.photons_requested == 100_000
            traced = stopped.config.n_photons
            assert 0 < traced < 100_000
            assert traced % 64 == 0  # stops on chunk boundaries
            assert stopped.achieved_rel_error is not None
            assert stopped.achieved_rel_error <= 0.5
            # The canonical answer for the traced count, exactly.
            plain = session.simulate(SimulateRequest(n_photons=traced))
            assert forest_bytes(plain) == forest_bytes(stopped)

    def test_unreachable_target_runs_the_full_budget(self):
        with RenderSession(build_mini_scene()) as session:
            result = session.simulate(
                SimulateRequest(n_photons=300, target_rel_error=1e-9)
            )
            assert not result.early_stopped
            assert result.config.n_photons == 300
            assert result.photons_requested == 300
            # achieved is still reported (the caller asked to measure).
            assert result.achieved_rel_error is not None

    def test_converged_cache_entry_serves_without_tracing(self):
        """An amortized session whose cached forest already meets the
        target answers from the cache with zero new photons."""
        with RenderSession(build_mini_scene(), AMORTIZE) as session:
            warm = session.simulate(SimulateRequest(n_photons=4096))
            summary_target = 0.5  # mini scene converges well before 4096
            stopped = session.simulate(
                SimulateRequest(
                    n_photons=100_000, target_rel_error=summary_target
                )
            )
            assert stopped.early_stopped
            assert session.last_photons_traced == 0
            assert stopped.config.n_photons == 4096
            assert forest_bytes(stopped) == forest_bytes(warm)

    def test_a_topped_up_early_stop_checks_where_a_cold_one_does(
        self, cornell
    ):
        """A target request grown from a cached prefix stops at the
        photon count, and with the bytes, of the same request served
        cold: its checks land on multiples of the step, not on steps
        counted from the prefix."""
        request = SimulateRequest(n_photons=20_000, seed=7, target_rel_error=0.2)
        with RenderSession(cornell) as session:
            cold = session.simulate(request)
        assert cold.config.n_photons == vectorized.PHOTONS_IN_FLIGHT
        with RenderSession(SceneProgram(cornell), AMORTIZE) as session:
            session.simulate(SimulateRequest(n_photons=1_000, seed=7))
            topped = session.simulate(request)
            assert session.last_photons_traced == cold.config.n_photons - 1_000
        assert topped.config.n_photons == cold.config.n_photons
        assert forest_bytes(topped) == forest_bytes(cold)

    @pytest.mark.parametrize("prior", [240, 10_000])
    def test_cache_history_never_changes_a_target_answer(self, cornell, prior):
        """Whatever prefix the cache holds — shorter than the first check
        point or past it — a target request answers what a cold session
        does, the first time and once its own answer is cached."""
        request = SimulateRequest(n_photons=40_000, target_rel_error=0.5)
        with RenderSession(cornell) as session:
            cold = session.simulate(request)
        assert cold.config.n_photons == vectorized.PHOTONS_IN_FLIGHT
        with RenderSession(SceneProgram(cornell), AMORTIZE) as session:
            session.simulate(SimulateRequest(n_photons=prior))
            for _ in range(2):
                answer = session.simulate(request)
                assert answer.config.n_photons == cold.config.n_photons
                assert answer.achieved_rel_error == cold.achieved_rel_error
                assert forest_bytes(answer) == forest_bytes(cold)

    @pytest.mark.parametrize("batch", [1_000, 3_000, 4_096, 5_000])
    def test_a_streamed_early_stop_answers_the_one_shot(self, cornell, batch):
        """A stream checks a target where :meth:`simulate` does, so its
        last yield is the one-shot answer whatever its chunk."""
        request = SimulateRequest(n_photons=20_000, seed=7, target_rel_error=0.9)
        with RenderSession(cornell) as session:
            oneshot = session.simulate(request)
            # Yields share one growing forest: read each count as it lands.
            counts = []
            for last in session.simulate_stream(request, batch_size=batch):
                counts.append(last.forest.photons_emitted)
        assert last.config.n_photons == oneshot.config.n_photons
        assert last.achieved_rel_error == oneshot.achieved_rel_error
        assert forest_bytes(last) == forest_bytes(oneshot)
        # Progress comes at the client's chunks; only the answer may not.
        assert all(count % batch == 0 for count in counts[:-1])

    def test_early_stop_streams_stop_streaming(self):
        with RenderSession(build_mini_scene()) as session:
            chunks = list(
                session.simulate_stream(
                    SimulateRequest(n_photons=100_000, target_rel_error=0.5),
                    batch_size=64,
                )
            )
            assert chunks[-1].forest.photons_emitted < 100_000
            # Each yield is cumulative; the stream ended at convergence,
            # not at the budget.
            assert len(chunks) < 100_000 // 64


class TestCameraOnlyFastPath:
    def test_repeat_render_traces_nothing_and_matches(self):
        scene = build_mini_scene()
        request = SimulateRequest(n_photons=300)
        with RenderSession(scene, AMORTIZE) as session:
            first = session.render_view(request, width=24, height=18)
            assert session.last_photons_traced == 300
            # A different camera, same trace: the fast path re-renders
            # the cached forest without tracing a photon.
            again = session.render_view(request, width=32, height=24)
            assert session.last_photons_traced == 0
            reference = session.render(
                session.simulate(request), width=32, height=24
            )
            assert np.array_equal(again, reference)
            assert first.shape == (18, 24, 3)
        stats = SceneProgram.compile(scene).amortize_stats()
        assert stats["camera_only_hits"] >= 1

    def test_cold_render_is_not_booked_as_camera_only(self):
        scene = build_mini_scene()
        with RenderSession(scene, AMORTIZE) as session:
            session.render_view(SimulateRequest(n_photons=200))
        assert (
            SceneProgram.compile(scene).amortize_stats()["camera_only_hits"]
            == 0
        )
