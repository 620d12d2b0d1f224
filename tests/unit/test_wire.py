"""Unit tests for the HTTP/1.1 wire codec."""

import asyncio

import pytest

from repro.http.errors import MessageTooLarge, ProtocolError
from repro.http.messages import Request, Response
from repro.http.wire import (MAX_START_LINE, RequestParser, read_response,
                             serialize_request, serialize_response)


def parse_request(data: bytes):
    """The first request of ``data`` fed whole to a parser, then EOF;
    None when the stream held no bytes."""
    parser = RequestParser()
    parser.feed(data)
    request = parser.next_request()
    if request is None:
        parser.feed_eof()
    return request


class _ParseCall:
    """Defer reader construction into the running event loop."""

    def __init__(self, parse_fn, data: bytes, **kwargs):
        self.parse_fn = parse_fn
        self.data = data
        self.kwargs = kwargs

    async def _invoke(self):
        reader = asyncio.StreamReader()
        reader.feed_data(self.data)
        reader.feed_eof()
        return await self.parse_fn(reader, **self.kwargs)


def run(call: _ParseCall):
    return asyncio.run(call._invoke())


class TestSerializeRequest:
    def test_basic_get(self):
        wire = serialize_request(Request(url="/a", headers={"Host": "x"}))
        assert wire.startswith(b"GET /a HTTP/1.1\r\n")
        assert b"Host: x\r\n" in wire
        assert wire.endswith(b"\r\n\r\n")

    def test_body_gets_content_length(self):
        wire = serialize_request(Request(method="POST", url="/",
                                         body=b"abc"))
        assert b"Content-Length: 3\r\n" in wire
        assert wire.endswith(b"abc")


class TestSerializeResponse:
    def test_basic(self):
        wire = serialize_response(Response(status=200, body=b"hi"))
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 2\r\n" in wire
        assert wire.endswith(b"hi")

    def test_304_has_no_body_bytes(self):
        wire = serialize_response(Response(status=304, body=b"ignored"))
        assert not wire.endswith(b"ignored")
        assert b"Content-Length" not in wire

    def test_204_has_no_body(self):
        wire = serialize_response(Response(status=204))
        assert b"Content-Length" not in wire


class TestReadRequest:
    def test_round_trip(self):
        original = Request(method="GET", url="/x?q=1",
                           headers={"Host": "h", "Accept": "*/*"})
        parsed = parse_request(serialize_request(original))
        assert parsed.method == "GET"
        assert parsed.url == "/x?q=1"
        assert parsed.headers["host"] == "h"

    def test_round_trip_with_body(self):
        original = Request(method="POST", url="/submit", body=b"payload")
        parsed = parse_request(serialize_request(original))
        assert parsed.body == b"payload"

    def test_clean_eof_returns_none(self):
        assert parse_request(b"") is None

    @pytest.mark.parametrize("bad", [
        b"GARBAGE\r\n\r\n",
        b"GET /\r\n\r\n",                      # missing version
        b"GET / HTTP/3.0\r\n\r\n",             # unsupported version
        b"G=T / HTTP/1.1\r\n\r\n",             # bad method
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        b"GET / HTTP/1.1\r\nName : v\r\n\r\n",  # space before colon
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_obsolete_folding_rejected(self):
        data = b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n"
        with pytest.raises(ProtocolError):
            parse_request(data)

    def test_conflicting_content_lengths_rejected(self):
        data = (b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 5\r\n\r\nabc")
        with pytest.raises(ProtocolError):
            parse_request(data)

    def test_te_plus_cl_rejected_smuggling(self):
        data = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                b"Content-Length: 3\r\n\r\n0\r\n\r\n")
        with pytest.raises(ProtocolError):
            parse_request(data)

    def test_chunked_body(self):
        data = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n")
        parsed = parse_request(data)
        assert parsed.body == b"abcdefg"

    def test_chunked_with_extension_and_trailer(self):
        data = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3;ext=1\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n")
        parsed = parse_request(data)
        assert parsed.body == b"abc"

    def test_chunk_without_its_crlf_rejected(self):
        data = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\nabcXY0\r\n\r\n")
        with pytest.raises(ProtocolError, match="CRLF"):
            parse_request(data)

    def test_bad_chunk_size_rejected(self):
        data = (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"zz\r\nabc\r\n0\r\n\r\n")
        with pytest.raises(ProtocolError):
            parse_request(data)


class TestReadResponse:
    def test_round_trip(self):
        original = Response(status=200, body=b"hello",
                            headers={"ETag": '"v"'})
        parsed = run(_ParseCall(read_response,
                                serialize_response(original)))
        assert parsed.status == 200
        assert parsed.body == b"hello"
        assert parsed.headers["etag"] == '"v"'

    def test_304_parsed_without_body(self):
        wire = serialize_response(Response(
            status=304, headers={"ETag": '"v"'}))
        parsed = run(_ParseCall(read_response, wire))
        assert parsed.status == 304
        assert parsed.body == b""

    def test_head_response_body_skipped(self):
        wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n")
        parsed = run(_ParseCall(read_response, wire,
                                request_method="HEAD"))
        assert parsed.body == b""

    def test_non_numeric_status_rejected(self):
        with pytest.raises(ProtocolError):
            run(_ParseCall(read_response, b"HTTP/1.1 abc OK\r\n\r\n"))

    def test_reason_with_spaces(self):
        wire = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
        parsed = run(_ParseCall(read_response, wire))
        assert parsed.reason == "Not Found"


class TestHeadLimits:
    """Field lines are bounded by the head limit only; Catalyst's
    ``X-Etag-Config`` maps run to 32 KiB on one line."""

    LONG = "x" * (20 * 1024)

    def test_long_field_line_in_request(self):
        wire = serialize_request(Request(
            url="/a", headers={"Host": "h", "X-Etag-Config": self.LONG}))
        parsed = parse_request(wire)
        assert parsed.headers["x-etag-config"] == self.LONG
        assert parsed.headers["host"] == "h"

    def test_long_field_line_in_response(self):
        wire = serialize_response(Response(
            status=200, body=b"page", headers={"X-Etag-Config": self.LONG}))
        parsed = run(_ParseCall(read_response, wire))
        assert parsed.headers["X-Etag-Config"] == self.LONG
        assert parsed.body == b"page"

    def test_long_start_line_rejected(self):
        data = b"GET /" + b"a" * MAX_START_LINE + b" HTTP/1.1\r\n\r\n"
        with pytest.raises(MessageTooLarge):
            parse_request(data)

    def test_head_past_stream_limit_rejected(self):
        # StreamReader() keeps asyncio's default 64 KiB limit, which
        # bounds the one readuntil that reads a response head
        data = b"HTTP/1.1 200 OK\r\nX-Pad: " + b"p" * (70 * 1024) \
            + b"\r\n\r\n"
        with pytest.raises(MessageTooLarge):
            run(_ParseCall(read_response, data))

    @pytest.mark.parametrize("bad", [
        b"GET / HTTP/1.1\r\nA: 1\nB: 2\r\n\r\n",     # bare LF
        b"GET / HTTP/1.1\r\nA: 1\rB: 2\r\n\r\n",     # bare CR
        b"GET / HTTP/1.1\r\nNa me: v\r\n\r\n",       # inner space
    ])
    def test_bad_field_lines_are_protocol_errors(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_truncated_head_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"GET / HTTP/1.1\r\nHost: h\r\n")
