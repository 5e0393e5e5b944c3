"""Span recorder installed from outside, around the layers' public callables.

``install()`` replaces each callable named in :data:`TARGETS` with a
wrapper that records one span per call — name, start, end, parent,
request id and a few counters read off the call's arguments — and
``uninstall()`` puts the originals back.  Nothing under ``src/`` knows it
is being measured; what a pool worker does inside its own process is
out of reach by design.

Parents come from a context variable, so the nesting is per thread and
per asyncio task.  The request id (``<seed hex>/<photons>[/render]``) is
set by the outermost span that can read it off its arguments and
inherited by everything below; the HTTP handler's task inherits it from
``read_request``.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

_SPAN = contextvars.ContextVar("bench_span", default=-1)
_REQUEST = contextvars.ContextVar("bench_request", default=None)


def request_id(seed: int, photons: int, render: bool = False) -> str:
    return f"{seed:x}/{photons}" + ("/render" if render else "")


# -- what each wrapped callable contributes beyond its timing ---------------
#
# ``rid(args, kwargs)`` names the request when the arguments carry it;
# ``before(args)`` / ``after(args, result, before_value)`` read counters.


def _rid_simulate(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return request_id(request.seed, request.n_photons)


def _rid_render_view(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return request_id(request.seed, request.n_photons, render=True)


def _rid_config(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        config = args[0].config
    return request_id(config.seed, config.n_photons)


def _after_simulate(args, result, _before):
    return {"photons": result.config.n_photons,
            "traced": args[0].last_photons_traced}


def _before_engine(args):
    return args[0].box_tests, args[0].patch_tests


def _after_engine(args, result, before):
    stats = result[1] if isinstance(result, tuple) else result.stats
    return {
        "box_tests": args[0].box_tests - before[0],
        "patch_tests": args[0].patch_tests - before[1],
        "photons": stats.photons,
        "reflections": stats.reflections,
        "escapes": stats.escapes,
        "bounce_limit_hits": stats.bounce_limit_hits,
    }


def _after_pool(args, _result, _before):
    pool = args[0]
    return {
        "wire_bytes": pool.last_result_wire_bytes,
        "reuses": pool.result_block_reuses,
        "overflows": sum(1 for r in pool.last_shard_results if r.overflow),
    }


def _after_read_request(_args, result, _before):
    """Name the HTTP request for the rest of its handler task."""
    if result is None or not result.body:
        return None
    try:
        body = json.loads(result.body)
        rid = request_id(int(body["seed"]), int(body["photons"]),
                         render=result.path.endswith("/render"))
    except (ValueError, KeyError, TypeError):
        return None
    _REQUEST.set(rid)
    return None


#: (module, owner class or None, attribute, span name, hooks)
TARGETS = (
    ("repro.scenes", None, "get_scene", "scenes.get_scene", {}),
    ("repro.api.program", "SceneProgram", "compile", "program.compile", {}),
    ("repro.parallel.shmplane", None, "publish", "shmplane.publish",
     {"after": lambda a, r, b: {"segment_bytes": r.handle.nbytes}}),
    ("repro.api.session", "RenderSession", "__init__", "session.open", {}),
    ("repro.api.session", "RenderSession", "simulate", "session.simulate",
     {"rid": _rid_simulate, "after": _after_simulate}),
    ("repro.api.session", "RenderSession", "render_view",
     "session.render_view", {"rid": _rid_render_view}),
    ("repro.api.session", "RenderSession", "render", "viewing.render", {}),
    ("repro.core.vectorized", "VectorEngine", "run", "vectorized.run",
     {"rid": _rid_config, "before": _before_engine, "after": _after_engine}),
    ("repro.core.vectorized", "VectorEngine", "trace_range",
     "vectorized.trace_range",
     {"before": _before_engine, "after": _after_engine}),
    ("repro.geometry.flatoctree", "FlatOctree", "traverse",
     "flatoctree.traverse", {}),
    ("repro.core.vectorized", None, "tally_block", "bintree.tally_block",
     {"after": lambda a, r, b: {"events": len(a[1])}}),
    ("repro.parallel.procpool", "PhotonPool", "start", "procpool.start", {}),
    ("repro.parallel.procpool", "PhotonPool", "run", "procpool.run",
     {"rid": _rid_config, "after": _after_pool}),
    ("repro.parallel.procpool", "PhotonPool", "trace_range",
     "procpool.trace_range", {}),
    # procpool binds the name at import, so that binding is the one called.
    ("repro.parallel.procpool", None, "gather_shards",
     "resultplane.gather_shards", {}),
    ("repro.api.amortize", "ForestCache", "lookup", "amortize.lookup", {}),
    ("repro.api.amortize", "ForestCache", "store", "amortize.store", {}),
    ("repro.service.pool", "SessionPool", "acquire", "pool.acquire", {}),
    ("repro.service.registry", "ProgramRegistry", "get", "registry.get", {}),
    ("repro.service.http", None, "read_request", "http.read_request",
     {"after": _after_read_request}),
    ("repro.service.service", None, "canonical_answer_bytes",
     "answerfile.serialise",
     {"after": lambda a, r, b: {"bytes": len(r)}}),
    ("repro.image.ppm", None, "ppm_bytes", "ppm.encode", {}),
)


class Tracer:
    """In-memory span store plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hooks: dict) -> Callable:
        rid_of = hooks.get("rid")
        before = hooks.get("before")
        after = hooks.get("after")
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def enter(args, kwargs):
            sid = next(ids)
            parent = _SPAN.get()
            span_token = _SPAN.set(sid)
            rid_token = None
            if rid_of is not None and _REQUEST.get() is None:
                rid_token = _REQUEST.set(rid_of(args, kwargs))
            seen = before(args) if before is not None else None
            return sid, parent, span_token, rid_token, seen, clock()

        def leave(state, args, result, failed):
            end = clock()
            sid, parent, span_token, rid_token, seen, start = state
            attrs = None
            if after is not None and not failed:
                attrs = after(args, result, seen)
            spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "request": _REQUEST.get(),
                "thread": threading.get_ident(), "attrs": attrs,
            })
            _SPAN.reset(span_token)
            if rid_token is not None:
                _REQUEST.reset(rid_token)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                result, failed = None, True
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    leave(state, args, result, failed)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                result, failed = None, True
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    leave(state, args, result, failed)
        return wrapper

    def install(self) -> None:
        """Wrap every callable in :data:`TARGETS` (idempotent)."""
        if self._originals:
            return
        for module_name, owner_name, attr, name, hooks in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, hooks)
                )
            else:
                wrapped = self._wrap(original, name, hooks)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """A cursor; ``view(mark)`` later sees only spans recorded since."""
        return len(self.spans)

    def view(self, since: int = 0, scale: float = 1.0) -> "SpanView":
        return SpanView(self.spans[since:], scale)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"unit": "ns", "spans": self.spans}, handle)


class SpanView:
    """Aggregations over a list of finished spans.

    Every duration handed out is multiplied by *scale* (the host
    normalisation of ``bench/hostinfo.py``).
    """

    def __init__(self, spans: list[dict], scale: float = 1.0) -> None:
        self.spans = _name_siblings(spans)
        self.scale = scale
        children = defaultdict(int)
        for span in self.spans:
            children[span["parent"]] += span["end"] - span["start"]
        self._children_ns = children

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str, keep: Optional[Callable] = None) -> float:
        return sum(
            s["end"] - s["start"] for s in self.named(name)
            if keep is None or keep(s)
        ) * self.scale / 1e9

    def self_s(self, *names: str) -> float:
        """Duration minus the part covered by child spans, summed."""
        return sum(
            (s["end"] - s["start"]) - self._children_ns[s["id"]]
            for s in self.spans if s["name"] in names
        ) * self.scale / 1e9

    def count(self, name: str) -> int:
        return len(self.named(name))

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) * self.scale / 1e6 for s in self.named(name)
        ]

    def attr_sum(self, name: str, key: str) -> int:
        return sum(
            s["attrs"][key] for s in self.named(name) if s["attrs"]
        )


def _name_siblings(spans: list[dict]) -> list[dict]:
    """Give a request-less top-level span the id of the one before it.

    The service serialises the answer right after ``simulate`` returns,
    on the same executor thread but as a sibling, where no argument names
    the request; the preceding top-level span in that thread does.
    """
    last: dict[int, Optional[str]] = {}
    out = []
    for span in sorted(spans, key=lambda s: (s["thread"], s["start"])):
        if span["parent"] == -1:
            if span["request"] is None and span["name"] in (
                "answerfile.serialise", "ppm.encode"
            ):
                span = dict(span, request=last.get(span["thread"]))
            else:
                last[span["thread"]] = span["request"]
        out.append(span)
    return out
