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
pool); result blocks are budget-sized and per-pool, so each session's
pool owns its own.  The pool serves every fluorescence spec: the spec
travels with each shard, so no request respawns the workers.

Amortization (``SessionOptions(amortize=True)``): requests go through
the program's :class:`~repro.api.amortize.ForestCache`, the only
cross-request cache.  A serve that needs no new photons returns the
cached forest itself; a top-up copies it once before extending it.
Treat every served ``result.forest`` as read-only — it may be shared
with the cache and with other results.

Kernel gate: every in-process, CPU-bound section of a serve — a
single-process trace and tally, each shard's tally in a pooled run,
the top-up copy, the convergence summary, a render — runs holding the process-wide
:data:`repro.api.gate.KERNEL_GATE`, one section at a time across all
sessions.  A request the cache already
answers never takes it, and it is never held across a wait on pool
workers or between stream chunks.

Every session traces with the vector engine on per-photon substreams;
the per-photon reference loop is the oracle
:func:`repro.paper.scalar.run_scalar`, not a session.  Determinism
contract: for equal requests, every session configuration — worker
count, batch size, streamed or one-shot — produces byte-identical
answers, and all of them equal ``run_scalar`` under substream RNG (the
golden suite holds both to the same committed bytes).

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

from ..core.bintree import BinForest
from ..core.convergence import forest_error_summary
from ..core.simulator import SimulationConfig, SimulationResult, TraceStats
from ..geometry.scene import Scene
from .amortize import CachedTrace, trace_key
from .gate import KERNEL_GATE
from .program import SceneProgram
from .requests import SessionOptions, SimulateRequest, merge_config

__all__ = ["RenderSession"]


def _answers(
    entry: Optional[CachedTrace], n: int, target: Optional[float]
) -> bool:
    """Whether *entry* is the request's answer with nothing left to trace:
    the whole budget, or a prefix already within the convergence target."""
    if entry is None:
        return False
    return entry.n == n or (
        target is not None and entry.median_relative_error() <= target
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
            from ..core.vectorized import VectorEngine

            engine = VectorEngine(
                arrays=self.program.arrays,
                fluorescence=fluorescence,
                batch_size=self.options.batch_size,
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

        Under ``SessionOptions(amortize=True)`` a request whose trace
        key matches a cached run of at most its budget (any batch size
        or worker count) starts from the cached forest and traces only
        the missing photon range — byte-identical to a cold run,
        per the substream prefix property (see
        :mod:`repro.api.amortize`).  A hit that traces nothing (an
        exact repeat, an already-converged early stop, a camera-only
        render) returns the cached forest itself, shared and
        read-only; only a top-up pays a deep copy.

        Under ``request.target_rel_error`` the trace proceeds in
        ``options.batch_size`` chunks and stops early once the forest's
        median per-bin relative error reaches the target; the answer is
        the exact canonical answer for the photons actually traced.
        """
        self._check_open()
        self._begin_request("simulate()")
        try:
            config = merge_config(request, self.options)
            if (
                self._forest_cache is not None
                or request.target_rel_error is not None
            ):
                result = self._simulate_incremental(request, config)
            else:
                # The full budget in one call to the warm pool or engine.
                if config.workers > 1:
                    # Mostly a wait on the workers: the pool takes the
                    # gate only around each shard's tally.
                    result = self._warm_pool(config).run(config)
                else:
                    with KERNEL_GATE:
                        result = self._engine_for(request.fluorescence).run(
                            config
                        )
                self.last_photons_traced = config.n_photons
            self.requests_served += 1
            return result
        finally:
            self._end_request()

    def _simulate_incremental(
        self, request: SimulateRequest, config: SimulationConfig
    ) -> SimulationResult:
        """Chunked tracing over an optional cached prefix.

        Exactness argument: per-photon substreams make photon *i*'s
        events independent of every other photon, and canonical tally
        replay over contiguous ascending chunks is chunking-invariant
        (the stream-parity contract) — so extending a deep copy of the
        cached ``[0, n)`` forest with the events of ``[n, m)`` replays
        the identical global tally sequence a cold ``[0, m)`` run
        replays, byte for byte, whatever batch size or worker count
        traced either half.

        Sharing rule: a cached forest is never mutated.  A serve with
        nothing to trace returns ``entry.forest``/``entry.stats`` as
        they are; :meth:`_extend` copies them before its first chunk.

        Gate rule: a request the cache already answers — an exact
        repeat, a prefix that meets the convergence target — is told so
        by a read-only probe and never waits at the kernel gate.  Every
        other request takes the gate *first* and looks the cache up
        under it, so of two threads released on one never-seen key the
        second finds the forest the first just stored: an exact hit,
        with no coalescing machinery.
        """
        n, target = config.n_photons, request.target_rel_error
        cache = self._forest_cache
        key = trace_key(config)
        entry = None
        if cache is not None and _answers(cache.peek(key, n), n, target):
            # The serve's lookup proper: it refreshes recency, the probe
            # does not.  An entry evicted or outgrown since the probe no
            # longer answers, and the request goes to the gate after all.
            entry = cache.lookup(key, n)
        if _answers(entry, n, target):
            forest, stats, done = entry.forest, entry.stats, entry.n
            achieved = (
                entry.median_relative_error() if target is not None else None
            )
        else:
            with KERNEL_GATE:
                if cache is not None:
                    entry = cache.lookup(key, n)
                forest, stats, done, achieved = self._extend(
                    request, config, entry
                )
                if cache is not None:
                    cache.store(key, done, forest, stats)
        reused = entry.n if entry is not None else 0
        if cache is not None:
            cache.record_serve(reused, done - reused, done < n)
        self.last_photons_traced = done - reused
        result_config = (
            config if done == n else dataclasses.replace(config, n_photons=done)
        )
        return SimulationResult(
            forest,
            stats,
            result_config,
            self.scene.name,
            photons_requested=n if target is not None else None,
            achieved_rel_error=achieved,
        )

    def _extend(
        self,
        request: SimulateRequest,
        config: SimulationConfig,
        entry: Optional[CachedTrace],
    ) -> tuple:
        """Trace from *entry*'s prefix (or from nothing) towards the budget.

        Runs under the kernel gate.  Returns ``(forest, stats, done,
        achieved)``: the photons in the forest, and its median relative
        error when the request set a target (else ``None``).
        """
        target = request.target_rel_error
        if entry is not None:
            forest, stats, done = entry.forest, entry.stats, entry.n
        else:
            forest, stats, done = BinForest(config.policy), TraceStats(), 0
        trace = None
        while done < config.n_photons:
            if target is not None and done > 0:
                summary = forest_error_summary(forest)
                if summary.median_relative_error <= target:
                    break
            if trace is None:
                # First chunk: provision the tracer and un-share the
                # cached prefix this chunk is about to extend.
                trace = self._chunk_tracer(request, config)
                if entry is not None:
                    forest = copy.deepcopy(forest)
                    stats = dataclasses.replace(stats)
            todo = min(self.options.batch_size, config.n_photons - done)
            trace(forest, stats, done, todo)
            done += todo
        achieved = (
            forest_error_summary(forest).median_relative_error
            if target is not None
            else None
        )
        return forest, stats, done, achieved

    def _chunk_tracer(self, request: SimulateRequest, config: SimulationConfig):
        """A ``trace(forest, stats, start, count)`` closure for *config*.

        Both variants — warm pool or warm in-process engine — trace the
        absolute photon range ``[start, start + count)`` into the
        growing forest: the same building blocks :meth:`simulate_stream`
        chains, so the chunked answer is pinned byte-identical to the
        one-shot one by the stream-parity suite.
        """
        from ..core.vectorized import tally_block

        if config.workers > 1:

            def source(seed, start, count):
                # The caller holds the gate; spawning the workers and
                # waiting on them uses none of this process's CPU, so
                # neither happens under it.
                with KERNEL_GATE.released():
                    return self._warm_pool(config).trace_range(
                        seed, start, count, request.fluorescence
                    )

        else:
            source = self._engine_for(request.fluorescence).trace_range

        def trace(forest, stats, start, count):
            block, chunk_stats = source(config.seed, start, count)
            stats.merge(chunk_stats)
            tally_block(forest, block, count)

        return trace

    def simulate_stream(
        self, request: SimulateRequest, batch_size: Optional[int] = None
    ) -> Iterator[SimulationResult]:
        """Serve one request as cumulative per-chunk results.

        Yields after every *batch_size* photons (default: the session's
        ``options.batch_size``); each yield is the cumulative result so
        far — the same forest object growing across yields, exactly like
        :func:`~repro.paper.scalar.run_scalar_batches`.  Because tally
        replay is canonical in (photon, bounce) order regardless of
        chunk boundaries, the **final** yield is byte-identical to
        :meth:`simulate` of the same request, on every worker/batch-size
        combination (pinned by the stream-parity suite).

        Validation happens at the call, not at first iteration, and the
        request counts as served when the stream starts (a consumer may
        stop early on convergence — an advertised use).  When
        ``request.target_rel_error`` is set the session does that
        convergence check itself: the stream ends after the first chunk
        whose forest meets the target, and — as with every early stop —
        that final yield is the exact answer for the photons traced.
        """
        self._check_open()
        chunk = batch_size if batch_size is not None else self.options.batch_size
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

        Each chunk goes through the same :meth:`_chunk_tracer` closure
        the incremental serve uses — warm engine or warm pool — into
        one growing forest; contiguous ascending chunks
        keep the global tally sequence canonical, which is why the
        final cumulative forest matches the one-shot answer
        byte-for-byte.  Under a convergence target the check shares the
        chunk's gated section and acts after the yield, so the consumer
        always receives the chunk that crossed the threshold.
        """
        forest = BinForest(config.policy)
        stats = TraceStats()
        if config.n_photons == 0:
            # Keep the final-yield-equals-simulate contract on an empty
            # budget: one empty cumulative result.
            yield SimulationResult(forest, stats, config, self.scene.name)
            return
        target = request.target_rel_error
        trace = self._chunk_tracer(request, config)
        done = 0
        while done < config.n_photons:
            todo = min(chunk, config.n_photons - done)
            # The gate is taken per chunk and never held across a yield:
            # a slow consumer must not park every other session.
            with KERNEL_GATE:
                trace(forest, stats, done, todo)
                converged = (
                    target is not None
                    and forest_error_summary(forest).median_relative_error
                    <= target
                )
            done += todo
            yield SimulationResult(forest, stats, config, self.scene.name)
            if converged:
                if self._forest_cache is not None:
                    self._forest_cache.record_serve(0, 0, True)
                return

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
        a band of ``options.batch_size`` rays at a time
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
