"""One-connection-per-request HTTP client that times what a user sees.

``repro.service.http_request`` returns only the body; the benchmark also
needs the connect time and, for ``?stream=1``, the time to the first
NDJSON line, so it carries its own few lines over ``http.client``.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import NamedTuple, Optional


class Reply(NamedTuple):
    status: int
    #: The answer: the whole body, or a stream's final NDJSON line.
    answer: bytes
    nbytes: int
    connect_ms: float
    #: Connect -> first body line; ``None`` unless streaming.
    first_ms: Optional[float]
    #: Connect -> last byte.
    total_ms: float


def post(host: str, port: int, path: str, body: dict, *,
         stream: bool = False, timeout: float = 60.0) -> Reply:
    payload = json.dumps(body).encode("utf-8")
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    start = time.perf_counter()
    try:
        conn.connect()
        connected = time.perf_counter()
        conn.request("POST", path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        first_ms = None
        if stream:
            head = response.readline()
            first_ms = (time.perf_counter() - start) * 1e3
            data = head + response.read()
            lines = data.strip().split(b"\n")
            answer = lines[-1] if lines else b""
        else:
            data = response.read()
            answer = data
        end = time.perf_counter()
        return Reply(response.status, answer, len(data),
                     (connected - start) * 1e3, first_ms, (end - start) * 1e3)
    finally:
        conn.close()
