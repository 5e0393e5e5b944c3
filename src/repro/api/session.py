"""``RenderSession``: a persistent serving loop over one compiled scene.

The paper's architecture is a long-lived *simulation program* that
answers many *viewing requests*; a one-shot API inverts that by
paying scene compilation, plane publication, and worker spawn on every
call.  A :class:`RenderSession` owns those resources for its
lifetime and serves any number of requests against them:

* :meth:`simulate` — run one :class:`~repro.api.SimulateRequest` to a
  full :class:`~repro.core.simulator.SimulationResult`.
* :meth:`simulate_stream` — the same budget, yielded as cumulative
  results per chunk (progress bars, early convergence checks); the
  final yield is byte-identical to :meth:`simulate`.
* :meth:`render` — the viewing stage: any answer (result, forest, or
  loaded answer file) rendered from any camera, defaulting to the
  scene's registered view.

Warm-path contract (pinned by
``tests/api/test_session.py::test_pool_survives_across_requests`` and
``tests/parallel/test_resultplane.py::test_warm_session_reuses_block_objects``):
request #2 on a session performs **zero** scene recompiles, **zero**
plane publishes, **zero** worker spawns, and **zero** result-block
allocations — only tracing.  The session's persistent pool owns the
shared-memory result blocks (:mod:`repro.parallel.resultplane`), so
warm requests reuse the same block objects and :meth:`simulate_stream`
serves every cumulative batch from the plane without per-batch event
pickling.  Multi-process sessions share one published scene plane per
program across all the serving process's concurrent sessions (the
:class:`~repro.api.SceneProgram` refcounts it, one reference per live
pool); result blocks are sized to a shard set and per-pool, so each
session's pool owns its own.  The pool serves every fluorescence spec: the spec
travels with each shard, so no request respawns the workers.

One path from request to forest: a cold request, a top-up, an early
stop and a stream all add photons ``[a, b)`` to a forest through one
chunk loop (``_grow``).  It traces the range in segments — the whole
range, or under a target the range to each convergence check point —
and each segment is one trace on the warm tracer: one wave on the
engine; on the pool one shard set, or for a long stream consecutive
sets of at least a wave per worker, each ending at a report point.
Both report prefixes alike, with ``run`` when only the segment's end
reports and ``grow`` when a stream reports at chunk boundaries inside
it.  A stream's chunks are report points of its trace, not traces of
their own.  Trace counts ride in the forest: each tallied block books
its own (:func:`~repro.core.vectorized.tally_block`), so a result — a
stream's every yield, a cache hit and a top-up included — copies its
``stats`` off its forest, and they count exactly the photons the forest
holds.  No method passes counts to another.

Amortization (``SessionOptions(amortize=True)``): requests go through
the program's :class:`~repro.api.amortize.ForestCache`, the only
cross-request cache.  A serve that needs no new photons returns the
cached forest itself; a top-up copies it once before extending it.
Treat every served ``result.forest`` as read-only — it may be shared
with the cache and with other results.

Concurrency, the same on every route: a request the cache already
answers takes no lock.  Any other amortized serve extends its trace key
under the cache's :meth:`~repro.api.amortize.ForestCache.flight`, so
identical requests in flight trace once, on an engine or a pool.
In-process kernel sections — an engine's trace, a pool's shard tally, a
top-up copy, a convergence check, a render — each hold the process-wide
:data:`repro.api.gate.KERNEL_GATE`, one section at a time across all
sessions; a wait on pool workers or between stream chunks holds none.

Every session traces with the vector engine on per-photon substreams;
the per-photon reference loop is the oracle
:func:`repro.paper.scalar.run_scalar`, not a session.  Determinism
contract: for equal requests, every session configuration — worker
count, amortization, cache history — produces byte-identical answers,
and all of them equal ``run_scalar`` under substream RNG (the golden
suite holds both to the same committed bytes).  A convergence target
is checked every :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`
photons on every session and in every stream, whatever its chunk, so an
early stop has one answer too.

Sessions are context managers; always ``with`` them (or call
:meth:`close` in a ``finally``) so pools shut down and release their
plane references even when a request raises.  A session serves **one
request at a time**, and that is *enforced*, not merely documented: starting a
:meth:`simulate` or :meth:`simulate_stream` while another is in flight
raises ``RuntimeError`` immediately (the serving tier's session pools
depend on concurrent misuse being loud rather than silently corrupting
a warm engine).  Share the :class:`~repro.api.SceneProgram`, not the
session, across threads — or check sessions out of a
:class:`repro.service.SessionPool`.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from typing import Iterator, Optional, Union

import numpy as np

from ..core import vectorized
from ..core.bintree import BinForest
from ..core.convergence import forest_error_summary
from ..core.simulator import SimulationConfig, SimulationResult
from ..geometry.scene import Scene
from .amortize import CachedTrace, trace_key
from .gate import KERNEL_GATE
from .program import SceneProgram
from .requests import (
    SessionOptions,
    SimulateRequest,
    _require_int,
    merge_config,
)

__all__ = ["RenderSession"]


def _answers(
    entry: Optional[CachedTrace], n: int, target: Optional[float]
) -> bool:
    """Whether *entry* is the request's answer with nothing left to trace:
    the whole budget, or the first check point, within the target."""
    if entry is None:
        return False
    return entry.n == n or (
        target is not None
        and entry.n == vectorized.PHOTONS_IN_FLIGHT
        and entry.median_relative_error() <= target
    )


class _GuardedStream:
    """Iterator wrapper releasing a session's reentrancy guard once.

    The guard is taken when :meth:`RenderSession.simulate_stream`
    *returns* (validation happens at the call), so it must be released
    however the stream ends: exhaustion, a mid-stream error, an
    explicit ``close()`` (the client-disconnect path — closing also
    closes the inner generator, running its cleanup), or plain
    abandonment (``__del__``).  A generator alone cannot promise that —
    a never-started generator's ``finally`` never runs — hence this
    small explicit iterator.
    """

    def __init__(self, session: "RenderSession", inner) -> None:
        self._session = session
        self._inner = inner
        self._released = False

    def __iter__(self) -> "_GuardedStream":
        return self

    def __next__(self):
        try:
            return next(self._inner)
        except BaseException:
            self._release()
            raise

    def close(self) -> None:
        """Abandon the stream: close the inner generator, free the session.

        Safe mid-stream (the cancellation contract): the session's
        guard clears and the session is immediately reusable — by the
        caller or by the pool it goes back to — with no leaked
        shared-memory segments (the session still owns its planes; they
        release at session close as ever).
        """
        try:
            close = getattr(self._inner, "close", None)
            if close is not None:
                close()
        finally:
            self._release()

    def _release(self) -> None:
        if not self._released:
            self._released = True
            self._session._end_request()

    def __del__(self):  # pragma: no cover — GC timing is interpreter's
        try:
            self.close()
        # repro: allow[hyg-broad-except] — __del__ may run during
        # interpreter shutdown with half-torn modules; raising here
        # prints unkillable "Exception ignored in" noise instead of
        # anything actionable.
        except Exception:
            pass


class RenderSession:
    """A warm serving context: one compiled scene, many requests.

    Args:
        program: The scene to serve — a :class:`Scene`, a pre-compiled
            :class:`SceneProgram`, or a registered scene name
            (:func:`repro.scenes.build_scene`).  Scenes are compiled
            through the process-wide program cache, so two sessions on
            the same scene object share one compilation.
        options: Session provisioning (:class:`SessionOptions`);
            defaults to a single-process vector session.

    Example::

        from repro.api import RenderSession, SimulateRequest

        with RenderSession("cornell-box") as session:
            result = session.simulate(SimulateRequest(n_photons=20_000))
            image = session.render(result)          # default camera
            more = session.simulate(SimulateRequest(n_photons=20_000, seed=7))

    Attributes:
        program: The compiled :class:`SceneProgram` being served.
        options: The session's :class:`SessionOptions`.
        requests_served: Completed :meth:`simulate`/:meth:`simulate_stream`
            request count (diagnostics; the warm-path benchmark reads it).
    """

    def __init__(
        self,
        program: Union[Scene, SceneProgram, str],
        options: Optional[SessionOptions] = None,
    ) -> None:
        if isinstance(program, str):
            from ..scenes import build_scene

            program = build_scene(program)
        if isinstance(program, Scene):
            # Lazy compile: the arrays build on the first trace or
            # render, so a session that only answers cache hits never
            # pays for them.
            program = SceneProgram.compile(program, eager=False)
        self.program = program
        self.options = options if options is not None else SessionOptions()
        self.requests_served = 0
        self._engines: dict = {}  # fluorescence spec -> warm VectorEngine
        self._pool = None
        self._closed = False
        # Reentrancy guard: a session serves one request at a time; the
        # check-and-set is atomic so concurrent misuse from another
        # thread raises instead of corrupting warm engine state.
        self._guard = threading.Lock()
        self._active_request: Optional[str] = None
        # The program-shared forest cache (repro.api.amortize): owned
        # by the SceneProgram — it outlives this session, so every
        # session a pool opens on the program shares hits — and
        # per-session opt-in via the options.
        self._forest_cache = (
            self.program.forest_cache() if self.options.amortize else None
        )
        #: Photons actually traced by the most recent :meth:`simulate`
        #: (0 on a cache hit; the delta on a top-up).  ``None`` before
        #: the first request.  :meth:`render_view` reads it to count
        #: camera-only serves.
        self.last_photons_traced: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def scene(self) -> Scene:
        """The scene this session serves."""
        return self.program.scene

    def close(self) -> None:
        """Release every owned resource (idempotent).

        Shuts the worker pool down, which drops its reference on the
        program's shared plane; the program unlinks the segment when the
        last pool on it releases.  Serving after close raises
        ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        self._engines.clear()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "RenderSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this RenderSession is closed; open a new one")

    def _begin_request(self, kind: str) -> None:
        """Take the one-request-at-a-time guard or raise loudly."""
        with self._guard:
            if self._active_request is not None:
                raise RuntimeError(
                    f"this RenderSession is already serving "
                    f"{self._active_request}; a session serves one request "
                    "at a time — open another session (or check one out of "
                    "a repro.service.SessionPool) for concurrent requests"
                )
            self._active_request = kind

    def _end_request(self) -> None:
        with self._guard:
            self._active_request = None

    # -- resource provisioning (compile/publish/spawn happen here, once) ---

    def _engine_for(self, fluorescence) -> "object":
        """The warm single-process vector engine for *fluorescence*.

        Engines are cached per fluorescence spec; every one traces
        against the program's shared compiled arrays, so a cache miss
        costs only the (tiny) per-engine table setup, never a scene
        recompile.
        """
        engine = self._engines.get(fluorescence)
        if engine is None:
            engine = vectorized.VectorEngine(
                arrays=self.program.arrays, fluorescence=fluorescence
            )
            self._engines[fluorescence] = engine
        return engine

    def _warm_pool(self, config: SimulationConfig):
        """The session's process pool, started on first use.

        One pool serves every request: the fluorescence spec travels
        with each shard, so no request respawns the workers.  A pool
        that closed itself after a worker died restarts at its next
        trace; a pool whose start raised is not kept.
        """
        if self._pool is None:
            from ..parallel.procpool import PhotonPool

            self._pool = PhotonPool(self.program, config).start()
        return self._pool

    # -- serving -----------------------------------------------------------

    def simulate(self, request: SimulateRequest) -> SimulationResult:
        """Serve one request on the warm resources.

        Byte-identical to :func:`~repro.paper.scalar.run_scalar` of
        the same request under substream RNG — the session only changes
        *how* and *when* photons are traced, never a single tally.

        Every request takes one path (:meth:`_serve`): only the photons
        the cache (``SessionOptions(amortize=True)``) does not hold yet
        are traced, as one wave — byte-identical to a cold run (see
        :mod:`repro.api.amortize`).  A serve that traces nothing returns
        the cached forest itself, shared and read-only.

        Under ``request.target_rel_error`` the forest grows to each
        multiple of :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT` in
        turn and stops early once its median per-bin relative error
        reaches the target; the answer is the exact canonical answer for
        the photons actually traced, the same on every session whatever
        prefix the cache held.
        """
        self._check_open()
        self._begin_request("simulate()")
        try:
            result = self._serve(request, merge_config(request, self.options))
            self.requests_served += 1
            return result
        finally:
            self._end_request()

    def _serve(
        self, request: SimulateRequest, config: SimulationConfig
    ) -> SimulationResult:
        """The one serve body: the cached prefix, if any, grown to the answer.

        Exactness argument: per-photon substreams make photon *i*'s
        events independent of every other photon, and canonical tally
        replay over contiguous ascending ranges is chunking-invariant
        (the stream-parity contract) — so extending a deep copy of the
        cached ``[0, n)`` forest with the events of ``[n, m)`` replays
        the identical global tally sequence a cold ``[0, m)`` run
        replays, byte for byte, whatever wave width or worker count
        traced either half.

        Sharing rule: a cached forest is never mutated.  A serve with
        nothing to trace returns ``entry.forest`` as it is;
        :meth:`_extend` copies it before extending it.

        Concurrency rule, whatever the worker count: one lock-free
        lookup, and an entry that answers the request (an exact repeat,
        a first check point within the target) is returned holding no
        lock and no gate.  Any other serve holds the key's flight
        (:meth:`~repro.api.amortize.ForestCache.flight`) from a second
        lookup to its store, so of two serves released on one never-seen
        key the second finds the forest the first stored: an exact hit.
        Kernel sections inside take the gate one at a time
        (:meth:`_trace`).
        """
        n, target = config.n_photons, request.target_rel_error
        cache = self._forest_cache
        key = trace_key(config)
        # Under a target, no prefix past the first check point: the cache
        # keeps no error from before it, where a cold serve may stop.
        usable = n if target is None else min(n, vectorized.PHOTONS_IN_FLIGHT)
        entry = cache.lookup(key, usable) if cache is not None else None
        if cache is None or _answers(entry, n, target):
            forest, done, achieved = self._extend(request, config, entry)
        else:
            with cache.flight(key):
                entry = cache.lookup(key, usable)
                forest, done, achieved = self._extend(request, config, entry)
                cache.store(key, done, forest)
        reused = entry.n if entry is not None else 0
        if cache is not None:
            cache.record_serve(reused, done - reused, done < n)
        self.last_photons_traced = done - reused
        return self._answer(config, target, forest, done, achieved)

    def _answer(self, config, target, forest, done, achieved) -> SimulationResult:
        """The result for *forest*, which holds photons ``0 .. done``:
        the exact answer for the photons traced, with their counts copied
        off the forest, and the budget and the error reached when the
        request set a *target*."""
        if target is not None and achieved is None:
            # An empty budget takes no step; measure the empty forest.
            achieved = forest_error_summary(forest).median_relative_error
        return SimulationResult(
            forest,
            dataclasses.replace(forest.trace_stats),
            dataclasses.replace(config, n_photons=done),
            self.scene.name,
            photons_requested=config.n_photons if target is not None else None,
            achieved_rel_error=achieved,
        )

    def _extend(
        self,
        request: SimulateRequest,
        config: SimulationConfig,
        entry: Optional[CachedTrace],
    ) -> tuple:
        """Grow *entry*'s prefix (or an empty forest) towards the budget.

        Returns ``(forest, done, achieved)``: the forest, the photons it
        holds, and its median relative error when the request set a
        target (else ``None``).  An entry that already answers is
        returned as it is, shared; anything else is copied, trace counts
        and all, then grown.

        The missing range goes through :meth:`_grow` with no report
        point inside a segment: without a target it is one segment — one
        wave on the engine, one shard per worker on the pool — for a
        cold request and a top-up alike; under a target one segment per
        check point, checked after each.
        """
        target = request.target_rel_error
        if _answers(entry, config.n_photons, target):
            achieved = (
                entry.median_relative_error() if target is not None else None
            )
            return entry.forest, entry.n, achieved
        if entry is None:
            forest, done = BinForest(config.policy), 0
        else:
            # Un-share the cached prefix this serve is about to extend.
            with KERNEL_GATE:
                forest = copy.deepcopy(entry.forest)
            done = entry.n
        achieved = None
        for done, achieved in self._grow(
            config, target, forest, done, config.n_photons
        ):
            pass
        return forest, done, achieved

    def _grow(
        self, config, target, forest, done: int, step: int
    ) -> Iterator[tuple]:
        """The one chunk loop: extend *forest* from photon *done* towards
        ``config.n_photons``, reporting at each multiple of *step*.

        The range goes in segments: the whole of it, or under a *target*
        up to each multiple of :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`
        in turn, where the target is checked (and at the budget), so a
        grown prefix and a stream of any chunk check it at the photon
        counts a cold :meth:`simulate` does.  Each segment is one trace
        (:meth:`_trace`), one wave on the engine or one shard set on a
        pool, and its report points
        are its multiples of *step* and its end.  Yields ``(done, error)``
        at each report point, once the forest holds exactly photons
        ``0 .. done`` and their trace counts — *error* the forest's
        median per-bin relative error at a segment's end under a target,
        else ``None`` — and ends at the budget or after the segment that
        meets the target.
        :meth:`_extend` drains it, one report point per segment;
        :meth:`_stream` yields between its report points.  Contiguous
        ascending tallies keep the global tally sequence canonical, so
        where segments and report points fall moves no byte, and no
        count.  The segments stay: a check point ends the wave, because a
        wave refilled past it would hold the photons below it back until
        photons far past it had been emitted.
        """
        n, check = config.n_photons, vectorized.PHOTONS_IN_FLIGHT
        while done < n:
            end = n if target is None else min((done // check + 1) * check, n)
            segment = dataclasses.replace(config, n_photons=end)
            for done in self._trace(segment, forest, done, step):
                error = None
                if target is not None and done == end:
                    with KERNEL_GATE:
                        summary = forest_error_summary(forest)
                    error = summary.median_relative_error
                yield done, error
            if error is not None and error <= target:
                return

    def _trace(
        self, config: SimulationConfig, forest: BinForest, start: int,
        step: int,
    ) -> Iterator[int]:
        """Add photons ``start .. config.n_photons`` to *forest* on the
        warm tracer; yields each multiple of *step* inside the range, and
        its end, once the forest holds exactly the photons below it and
        their trace counts.

        Engine and pool differ only in who takes the gate; each kernel
        section holds it, nothing else does, and none spans a yield.
        Either tracer traces the range as one trace — one wave in
        process, shard sets on a pool (one unless a long stream's report
        points cut it, see
        :meth:`~repro.parallel.procpool.PhotonPool.grow`) — with its
        ``run`` when only the end reports, else its ``grow``
        (:meth:`~repro.core.vectorized.VectorEngine.grow`,
        :meth:`~repro.parallel.procpool.PhotonPool.grow`).  The engine
        is gated here, one section per ``next()``; the pool gates each
        block's tally itself and waits on its workers ungated.
        """
        end = config.n_photons
        one_report = vectorized.next_report(start, step, end) == end
        if config.workers > 1:
            pool = self._warm_pool(config)
            if one_report:
                pool.run(config, forest, start)
                yield end
            else:
                yield from pool.grow(config, forest, start, step)
            return
        if one_report:
            with KERNEL_GATE:
                self._engine_for(config.fluorescence).run(config, forest, start)
            yield end
            return
        wave, stop = None, start
        while stop < end:
            with KERNEL_GATE:
                if wave is None:
                    engine = self._engine_for(config.fluorescence)
                    wave = engine.grow(config, forest, start, step)
                stop = next(wave)
            yield stop

    def simulate_stream(
        self, request: SimulateRequest, batch_size: Optional[int] = None
    ) -> Iterator[SimulationResult]:
        """Serve one request as cumulative per-chunk results.

        Yields after every *batch_size* photons (default:
        :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`); each yield is
        the cumulative result so far — the same forest object growing
        across yields, exactly like
        :func:`~repro.paper.scalar.run_scalar_batches`.  A chunk is a
        report point, not a trace: the budget is traced as the one wave
        or shard set :meth:`simulate` traces (on a pool, a long stream
        as sets of at least a wave per worker, so a deadline or a close
        waits at most one set), and each chunk boundary
        reports its forest once that holds exactly the photons below
        the boundary.  Because tally replay is canonical in
        (photon, bounce) order, every yield's forest is the forest of a
        cold :meth:`simulate` of its prefix, and the **final** yield of a
        request without a target is byte-identical to :meth:`simulate`
        of the same request, on every worker count and chunk size
        (pinned by the stream-parity suite).

        Validation happens at the call, not at first iteration, and the
        request counts as served when the stream starts (a consumer may
        stop early on convergence — an advertised use).  When
        ``request.target_rel_error`` is set the session does that
        convergence check itself, at the photon counts :meth:`simulate`
        checks (each multiple of
        :data:`~repro.core.vectorized.PHOTONS_IN_FLIGHT`, where the wave
        ends as :meth:`simulate`'s does), and ends at the first one whose
        forest meets the target: its last yield is what a cold
        :meth:`simulate` answers, on every chunk size.  The final yield
        is the answer, and it carries what :meth:`simulate` returns: the
        photons traced as ``config.n_photons``, their ``stats``,
        ``photons_requested`` and ``achieved_rel_error`` under a target.
        Every earlier yield carries the whole budget as
        ``config.n_photons``, more than its forest holds, and the
        ``stats`` of exactly the photons its forest holds: a cold
        :meth:`simulate` of its prefix's counts.
        """
        self._check_open()
        chunk = batch_size
        if chunk is None:
            chunk = vectorized.PHOTONS_IN_FLIGHT
        _require_int(chunk, "batch_size")
        if chunk < 1:
            raise ValueError("batch_size must be positive")
        config = merge_config(request, self.options)
        self._begin_request("simulate_stream()")
        self.requests_served += 1
        return _GuardedStream(self, self._stream(request, config, chunk))

    def _stream(
        self, request: SimulateRequest, config: SimulationConfig, chunk: int
    ) -> Iterator[SimulationResult]:
        """The one stream body: cumulative results, one per *chunk*.

        The stream drains :meth:`_grow`, the loop every :meth:`simulate`
        drains, with each multiple of *chunk* a report point of its one
        trace per segment, into one growing forest, so the final forest is
        the one-shot answer byte for byte.  No kernel section spans a
        yield: a slow consumer must not park every other session, and a
        stream closed mid-trace leaves nothing behind but its own forest
        (a pool's unfinished shards are cancelled or waited out).
        The segment that meets a convergence target is the last; a
        segment end between chunk boundaries (a target's check) yields
        nothing.  Each yield copies its counts off the forest, so
        they stay its prefix's as the forest grows on.
        """
        n, target = config.n_photons, request.target_rel_error
        forest = BinForest(config.policy)
        done, error = 0, None
        for done, error in self._grow(config, target, forest, 0, chunk):
            if done == n or (error is not None and error <= target):
                break
            if done % chunk == 0:
                yield SimulationResult(
                    forest, dataclasses.replace(forest.trace_stats), config,
                    self.scene.name,
                )
        if done < n and self._forest_cache is not None:
            self._forest_cache.record_serve(0, 0, True)
        yield self._answer(config, target, forest, done, error)

    def render_view(
        self,
        request: SimulateRequest,
        camera=None,
        *,
        width: int = 160,
        height: int = 120,
    ) -> np.ndarray:
        """Simulate (or reuse) *request*'s answer and render it.

        The camera-only fast path as a first-class serve: with
        ``SessionOptions(amortize=True)`` a request that differs from a
        cached one **only in camera** re-renders the cached forest
        without tracing a single photon (the trace key is camera-free),
        and the forest cache books it as a camera-only hit.  Arguments
        mirror :meth:`render`.
        """
        image_source = self.simulate(request)
        traced = self.last_photons_traced
        image = self.render(image_source, camera, width=width, height=height)
        if traced == 0 and self._forest_cache is not None:
            self._forest_cache.record_camera_only()
        return image

    def render(
        self,
        answer: Union[SimulationResult, BinForest],
        camera=None,
        *,
        width: int = 160,
        height: int = 120,
    ) -> np.ndarray:
        """The viewing stage: render *answer* from *camera*.

        Eye rays go through the session's warm vector engine — the
        compiled closest-hit kernel and accelerator the photons use —
        a wave's width of rays at a time
        (:func:`repro.core.viewing.render_rows`), so nothing is
        compiled per render.

        Args:
            answer: A :class:`~repro.core.simulator.SimulationResult`
                from this session, or any
                :class:`~repro.core.bintree.BinForest` (e.g. from
                :func:`repro.core.load_answer`) computed for this scene.
            camera: A :class:`repro.core.Camera`; ``None`` uses the
                scene's registered default view at *width* x *height*.
            width / height: Resolution of the default camera (ignored
                when *camera* is given).

        Returns:
            The radiance image as a ``(height, width, 3)`` float array.
        """
        self._check_open()
        from ..core.radiance import RadianceField
        from ..core.viewing import Camera, render

        forest = answer.forest if isinstance(answer, SimulationResult) else answer
        if camera is None:
            camera = Camera(
                width=width, height=height, **self.program.default_camera
            )
        with KERNEL_GATE:
            field = RadianceField(self.scene, forest)
            return render(
                self.scene, field, camera, engine=self._engine_for(None)
            )
