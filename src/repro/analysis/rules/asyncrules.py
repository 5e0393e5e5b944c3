"""Async hygiene: nothing may block the event loop.

The serving tier (ARCHITECTURE.md, "Serving tier") runs every trace on
an executor thread precisely so the one asyncio loop stays responsive
to admission, streaming, and health checks.  A single synchronous
``session.simulate`` or ``time.sleep`` inside a coroutine stalls every
connected client, and no runtime test reliably catches it — the loop
just gets slow.  These rules flag blocking calls lexically inside
``async def`` bodies; the sanctioned escape is exactly what the
service does already: wrap the call in a sync closure and run it via
``loop.run_in_executor`` / ``asyncio.to_thread`` (the closure is a
nested sync ``def``, which these rules deliberately do not descend
into).  Taking the kernel gate (``repro.api.gate``) or a forest-cache
flight (``with cache.flight(key)``, ``repro.api.amortize``) counts as
blocking: its holder may be seconds into a trace.
"""

from __future__ import annotations

import ast

from ..base import Checker
from ..findings import Rule

__all__ = ["AsyncBlockingChecker"]

#: Session methods that trace/render synchronously (seconds of work).
_SESSION_BLOCKERS_PREFIX = "simulate"
_SESSION_BLOCKERS = {"close", "render", "profile"}

#: Socket methods that block the calling thread.
_SOCKET_OPS = {"recv", "recv_into", "accept", "connect", "sendall", "listen", "bind"}


def _final_name(node: ast.AST) -> str:
    """The last identifier of a dotted name (``a.b.session`` -> ``session``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_gate(name: str) -> bool:
    """Whether *name* names a kernel gate (``KERNEL_GATE``, ``self._gate``)."""
    return name.lower().endswith("gate")


class AsyncBlockingChecker(Checker):
    """async-blocking / async-future-result inside coroutine bodies."""

    rules = (
        Rule(
            "async-blocking",
            "synchronous blocking call inside async def "
            "(route through run_in_executor / to_thread)",
        ),
        Rule(
            "async-future-result",
            "Future.result() inside async def (await the future instead)",
        ),
    )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Walk an async body, skipping nested sync closures (the executor idiom)."""
        for stmt in node.body:
            self._walk_async(stmt)
        # Nested async defs are visited through _walk_async already;
        # do not generic_visit (it would double-count them).

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Sync functions may block freely; async defs nested inside
        # them still need checking.
        """Sync defs are skipped wholesale; their nested async defs are not."""
        self.generic_visit(node)

    def _walk_async(self, node: ast.AST) -> None:
        """Walk a coroutine body, skipping nested sync callables.

        A nested sync ``def`` or ``lambda`` is the executor-closure
        idiom — its body runs on a worker thread, so blocking calls
        there are the fix, not the bug.
        """
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.AsyncFunctionDef):
            self.visit_AsyncFunctionDef(node)
            return
        if isinstance(node, ast.Call):
            self._check_call(node)
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if _is_gate(_final_name(expr)):
                    self._emit_gate(expr)
                elif isinstance(expr, ast.Call) and (
                    _final_name(expr.func) == "flight"
                ):
                    self.emit(
                        expr,
                        "async-blocking",
                        "a forest-cache flight is held while another "
                        "request traces the same key; enter it on an "
                        "executor thread (RenderSession does, inside "
                        "simulate)",
                    )
        for child in ast.iter_child_nodes(node):
            self._walk_async(child)

    def _emit_gate(self, node: ast.AST) -> None:
        self.emit(
            node,
            "async-blocking",
            "taking the kernel gate on the loop thread waits out another "
            "request's trace and stalls every client; take it on an "
            "executor thread (RenderSession does, inside simulate/render)",
        )

    def _check_call(self, node: ast.Call) -> None:
        qual = self.qualname(node.func)
        if qual == "time.sleep":
            self.emit(
                node,
                "async-blocking",
                "time.sleep blocks the event loop; use await "
                "asyncio.sleep(...)",
            )
            return
        if qual == "socket.socket":
            self.emit(
                node,
                "async-blocking",
                "raw socket created inside async def; use the asyncio "
                "stream APIs (open_connection/start_server)",
            )
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        receiver = _final_name(node.func.value)
        if receiver == "session" and (
            attr.startswith(_SESSION_BLOCKERS_PREFIX) or attr in _SESSION_BLOCKERS
        ):
            self.emit(
                node,
                "async-blocking",
                f"session.{attr} traces synchronously and stalls the "
                "loop; wrap it in a sync closure and run it via "
                "loop.run_in_executor (see service/service.py)",
            )
            return
        if attr == "acquire" and _is_gate(receiver):
            self._emit_gate(node)
            return
        if attr == "result" and not node.args and not node.keywords:
            self.emit(
                node,
                "async-future-result",
                "Future.result() blocks (or raises InvalidStateError) "
                "on the loop thread; await the future instead",
            )
            return
        if attr in _SOCKET_OPS and "sock" in receiver.lower():
            self.emit(
                node,
                "async-blocking",
                f"synchronous socket op .{attr}() inside async def; "
                "use the asyncio stream APIs",
            )
