"""Minimal asyncio HTTP/1.1 plumbing for the render service.

The serving tier deliberately runs on the standard library alone (the
repo's no-new-hard-deps rule), so this module implements the small HTTP
subset the service needs over ``asyncio`` streams:

* :func:`read_request` — parse one request (request line, headers, and a
  ``Content-Length`` body capped at the caller's byte budget).
* :func:`response_bytes` — serialize a full non-streaming response.
* :func:`start_chunked` / :func:`write_chunk` / :func:`end_chunked` —
  ``Transfer-Encoding: chunked`` framing for progressive streaming
  responses (the HTTP mapping of ``simulate_stream``).

Connections are single-request (``Connection: close``): the service's
clients are request/response or one long-lived stream, so keep-alive
bookkeeping would buy complexity, not throughput.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, unquote, urlsplit

from .errors import BadRequest, PayloadTooLarge

__all__ = [
    "HttpRequest",
    "read_request",
    "response_bytes",
    "json_response",
    "start_chunked",
    "write_chunk",
    "end_chunked",
    "STATUS_REASONS",
]

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: Request line + headers may not exceed this (defense against a peer
#: that never sends the blank line).
_MAX_HEADER_BYTES = 16 * 1024


@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str  # URL-decoded path, no query string
    query: dict = field(default_factory=dict)  # name -> last value
    headers: dict = field(default_factory=dict)  # lower-cased names
    body: bytes = b""

    def json_body(self) -> dict:
        """The body as a JSON object; ``{}`` when empty.

        Raises :class:`BadRequest` on malformed JSON or a non-object
        document — request parameters are always a JSON object.
        """
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise BadRequest(
                f"request body must be a JSON object, got {type(doc).__name__}"
            )
        return doc


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line from *reader*; a line over the reader's limit (which
    ``readline`` reports as ``ValueError``) is a :class:`BadRequest`."""
    try:
        return await reader.readline()
    except ValueError:
        raise BadRequest(f"{what} too long") from None


async def read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Optional[HttpRequest]:
    """Parse one request from *reader*; ``None`` on a closed connection.

    Raises:
        BadRequest: on an unparsable request line or header block, or a
            line longer than the reader's limit.
        PayloadTooLarge: when ``Content-Length`` exceeds *max_body*.
    """
    try:
        line = await _readline(reader, "request line")
    except ConnectionError:
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest(f"malformed request line: {line.decode('latin-1')!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict = {}
    header_bytes = 0
    while True:
        raw = await _readline(reader, "header line")
        header_bytes += len(raw)
        if header_bytes > _MAX_HEADER_BYTES:
            raise BadRequest("header block too large")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()

    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadRequest("Content-Length is not an integer") from None
    if length < 0:
        raise BadRequest("Content-Length is negative")
    if length > max_body:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the {max_body}-byte cap"
        )
    body = await reader.readexactly(length) if length else b""

    split = urlsplit(target)
    query = {
        name: values[-1]
        for name, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    return HttpRequest(
        method=method,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: tuple = (),
) -> bytes:
    """A complete non-streaming HTTP response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(status: int, payload: dict, *, extra_headers: tuple = ()) -> bytes:
    """A complete JSON response (the error/stats/health path)."""
    return response_bytes(
        status,
        json.dumps(payload).encode("utf-8"),
        extra_headers=extra_headers,
    )


async def start_chunked(
    writer: asyncio.StreamWriter, *, content_type: str = "application/x-ndjson"
) -> None:
    """Send the response head of a chunked (streaming) 200 response."""
    head = (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {content_type}\r\n"
        "Transfer-Encoding: chunked\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head)
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Send one chunk; raises ``ConnectionResetError`` on a gone peer."""
    if writer.transport.is_closing():
        raise ConnectionResetError("client disconnected mid-stream")
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response (the zero-length final chunk)."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
