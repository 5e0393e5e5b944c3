"""Run a :class:`~repro.service.RenderService` on a background thread.

The service is asyncio-native; synchronous callers (tests, benchmarks,
notebooks) need it running *next to* them.
:class:`ServiceThread` owns a dedicated event loop on a daemon thread,
starts the service there, and exposes the bound port plus a tiny
stdlib-only HTTP client (:func:`http_request`) for driving it.

::

    from repro.service import ServiceConfig, ServiceThread

    config = ServiceConfig(scenes=("cornell-box",), port=0)
    with ServiceThread(config) as service:
        status, headers, body = service.request(
            "POST", "/scenes/cornell-box/simulate", {"photons": 2000}
        )
    # service closed; every /dev/shm segment unlinked

Shutdown is the service's graceful :meth:`RenderService.close` run on
the loop, then the loop stops and the thread joins — so on context
exit the no-leaked-segments contract has already been settled.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from typing import Optional, Union

from .service import RenderService, ServiceConfig

__all__ = ["ServiceThread", "http_request"]


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Union[dict, bytes, None] = None,
    *,
    timeout: float = 60.0,
) -> tuple[int, dict, bytes]:
    """One HTTP request against a running service (stdlib client).

    Returns ``(status, headers, body)``; chunked (streaming) responses
    are read to the end, so ``body`` holds the full NDJSON transcript.
    """
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        payload = response.read()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, payload
    finally:
        conn.close()


class ServiceThread:
    """A render service running on its own thread + event loop."""

    def __init__(self, config: ServiceConfig, *, startup_timeout: float = 120.0):
        self.config = config
        self.service: Optional[RenderService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._startup_timeout = startup_timeout
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServiceThread":
        """Boot the service loop thread and block until it is listening.

        Raises ``RuntimeError`` if startup fails (e.g. a bad scene spec)
        or does not come up within the startup timeout.
        """
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service startup failed: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.service = RenderService(self.config)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def close(self) -> None:
        """Gracefully close the service, stop the loop, join the thread."""
        if self._closed:
            return
        self._closed = True
        if self._loop is None or self._thread is None:
            return
        if self.service is not None and self._startup_error is None:
            asyncio.run_coroutine_threadsafe(
                self.service.close(), self._loop
            ).result(timeout=self._startup_timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self._startup_timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- convenience -------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def request(
        self,
        method: str,
        path: str,
        body: Union[dict, bytes, None] = None,
        *,
        timeout: float = 60.0,
    ) -> tuple[int, dict, bytes]:
        """:func:`http_request` against this service."""
        return http_request(
            self.host, self.port, method, path, body, timeout=timeout
        )
