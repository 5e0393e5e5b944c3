"""The stdlib HTTP plumbing: parsing, framing, strictness.

Unit tests on :mod:`repro.service.http` alone — a fed
``StreamReader`` stands in for the socket, so every parser branch
(malformed request lines, header caps, body caps, query decoding) is
reachable without a server.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import BadRequest, PayloadTooLarge
from repro.service.http import (
    HttpRequest,
    json_response,
    read_request,
    response_bytes,
)


def parse(raw: bytes, max_body: int = 1 << 20):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(main())


class TestReadRequest:
    def test_post_with_body_and_query(self):
        raw = (
            b"POST /scenes/cornell-box/simulate?stream=1 HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 16\r\n\r\n"
            b'{"photons": 100}'
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.path == "/scenes/cornell-box/simulate"
        assert request.query == {"stream": "1"}
        assert request.json_body() == {"photons": 100}

    def test_url_decoding(self):
        raw = b"POST /scenes/gen%3Aoffice-8%400xBEEF/simulate HTTP/1.1\r\n\r\n"
        request = parse(raw)
        assert request.path == "/scenes/gen:office-8@0xBEEF/simulate"

    def test_closed_connection_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(BadRequest, match="request line"):
            parse(b"GARBAGE\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(BadRequest, match="header line"):
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_body_cap(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        )
        with pytest.raises(PayloadTooLarge) as info:
            parse(raw, max_body=50)
        assert info.value.status == 413

    def test_header_cap(self):
        raw = (
            b"GET / HTTP/1.1\r\n"
            + b"X-Pad: " + b"y" * (17 * 1024) + b"\r\n\r\n"
        )
        with pytest.raises(BadRequest, match="header block"):
            parse(raw)

    def test_overlong_request_line_is_bad_request(self):
        """A line past the reader's 64 KiB limit is the client's fault."""
        raw = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        with pytest.raises(BadRequest, match="request line too long"):
            parse(raw)

    def test_overlong_header_line_is_bad_request(self):
        raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"y" * 70_000 + b"\r\n\r\n"
        with pytest.raises(BadRequest, match="header line too long"):
            parse(raw)

    def test_bad_content_length(self):
        with pytest.raises(BadRequest, match="Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")


class TestJsonBody:
    def test_empty_body_is_empty_object(self):
        assert HttpRequest("POST", "/").json_body() == {}

    def test_invalid_json(self):
        request = HttpRequest("POST", "/", body=b"{nope")
        with pytest.raises(BadRequest, match="not valid JSON"):
            request.json_body()

    def test_non_object_rejected(self):
        request = HttpRequest("POST", "/", body=b"[1, 2]")
        with pytest.raises(BadRequest, match="JSON object"):
            request.json_body()


class TestResponses:
    def test_response_bytes_shape(self):
        raw = response_bytes(200, b'{"a": 1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8" in head
        assert b"Connection: close" in head
        assert body == b'{"a": 1}'

    def test_extra_headers(self):
        raw = response_bytes(
            429, b"{}", extra_headers=(("Retry-After", "1"),)
        )
        assert b"\r\nRetry-After: 1\r\n" in raw
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests")

    def test_json_response_round_trips(self):
        raw = json_response(404, {"error": {"code": "x"}})
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"error": {"code": "x"}}
