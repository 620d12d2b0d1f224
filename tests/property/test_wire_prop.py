"""Property-based tests for the HTTP/1.1 wire codec."""

import asyncio
import string

from hypothesis import given, settings, strategies as st

from repro.http.errors import (ConnectionClosed, HttpError, MessageTooLarge,
                               ProtocolError)
from repro.http.headers import Headers
from repro.http.messages import Request, Response
from repro.http.wire import (RequestParser, read_response,
                             serialize_request, serialize_response)

# Framing is the codec's job: the serializer adds Content-Length itself
# and the parser is (correctly) strict about conflicting or malformed
# framing headers, so the round-trip generator must not inject them.
_FRAMING = {"content-length", "transfer-encoding"}
token = st.text(alphabet=string.ascii_letters + string.digits + "-_",
                min_size=1, max_size=16) \
    .filter(lambda name: name.lower() not in _FRAMING)
header_value = st.text(
    alphabet=string.ascii_letters + string.digits + " ;,=.\"'/",
    max_size=40).map(str.strip)
header_lists = st.lists(st.tuples(token, header_value), max_size=10)
paths = st.text(alphabet=string.ascii_letters + string.digits + "/._-",
                min_size=1, max_size=40).map(lambda s: "/" + s)
bodies = st.binary(max_size=500)
statuses = st.sampled_from([200, 201, 204, 301, 304, 400, 404, 500])


def parse_requests(data: bytes) -> list[Request]:
    """Every request of ``data`` fed whole to one parser, then EOF."""
    parser = RequestParser()
    parser.feed(data)
    requests = []
    while (request := parser.next_request()) is not None:
        requests.append(request)
    parser.feed_eof()
    return requests


def parse(parse_fn, data: bytes, **kwargs):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await parse_fn(reader, **kwargs)
    return asyncio.run(inner())


@given(paths, header_lists, bodies)
@settings(max_examples=60)
def test_request_round_trip(path, headers, body):
    method = "POST" if body else "GET"
    original = Request(method=method, url=path, headers=Headers(headers),
                       body=body)
    [parsed] = parse_requests(serialize_request(original))
    assert parsed.method == method
    assert parsed.url == path
    assert parsed.body == body
    for name, value in headers:
        assert value in parsed.headers.get_all(name)


@given(statuses, header_lists, bodies)
@settings(max_examples=60)
def test_response_round_trip(status, headers, body):
    original = Response(status=status, headers=Headers(headers), body=body)
    parsed = parse(read_response, serialize_response(original))
    assert parsed.status == status
    if status in (204, 304):
        assert parsed.body == b""
    else:
        assert parsed.body == body


@given(st.binary(max_size=300))
@settings(max_examples=100)
def test_arbitrary_bytes_never_hang_or_crash(data):
    """Garbage input must raise a protocol-family error or parse —
    never raise something else and never loop forever."""
    try:
        parse_requests(data)
    except (ProtocolError, ConnectionClosed, MessageTooLarge, HttpError):
        pass
    try:
        parse(read_response, data)
    except (ProtocolError, ConnectionClosed, MessageTooLarge, HttpError):
        pass


@given(paths, header_lists, bodies, paths, bodies)
@settings(max_examples=30)
def test_pipelined_requests_parse_in_order(path_a, headers, body_a,
                                           path_b, body_b):
    first = Request(method="POST", url=path_a, headers=Headers(headers),
                    body=body_a)
    second = Request(method="POST", url=path_b, body=body_b)
    stream = serialize_request(first) + serialize_request(second)
    one, two = parse_requests(stream)
    assert one.url == path_a and one.body == body_a
    assert two.url == path_b and two.body == body_b


# -- the request parser fed in pieces ------------------------------------------

def _chunked(body: bytes, cuts: list[int]) -> bytes:
    """``body`` in chunked coding, cut into chunks at ``cuts``."""
    edges = sorted({0, len(body), *(c % (len(body) + 1) for c in cuts)})
    out = b""
    for start, end in zip(edges, edges[1:]):
        out += b"%x;ext=1\r\n" % (end - start) + body[start:end] + b"\r\n"
    return out + b"0\r\nX-Trailer: t\r\n\r\n"


@st.composite
def request_streams(draw) -> tuple[bytes, int]:
    """One to four pipelined requests, and their count: no body, a
    ``Content-Length`` body, or a chunked one with a chunk extension and
    a trailer."""
    stream = b""
    count = draw(st.integers(1, 4))
    for _ in range(count):
        headers = Headers(draw(header_lists))
        body = draw(bodies)
        framing = draw(st.sampled_from(["none", "length", "chunked"]))
        if framing == "none" or not body:
            stream += serialize_request(Request(
                method="GET", url=draw(paths), headers=headers))
            continue
        if framing == "length":
            stream += serialize_request(Request(
                method="POST", url=draw(paths), headers=headers, body=body))
            continue
        headers.add("Transfer-Encoding", "chunked")
        stream += serialize_request(Request(
            method="POST", url=draw(paths), headers=headers)) \
            + _chunked(body, draw(st.lists(st.integers(0, 500), max_size=4)))
    return stream, count


def _feed(stream: bytes, cuts: list[int]):
    """Feed ``stream`` cut at ``cuts``, then EOF: the requests parsed
    and the class of the error that stopped the parser (or None)."""
    edges = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    parser = RequestParser()
    requests = []
    try:
        for start, end in zip(edges, edges[1:]):
            parser.feed(stream[start:end])
            while (request := parser.next_request()) is not None:
                requests.append((request.method, request.url,
                                 list(request.headers.items()),
                                 request.body, request.http_version))
        parser.feed_eof()
    except HttpError as exc:
        return requests, type(exc)
    return requests, None


split_points = st.lists(st.integers(0, 10_000), max_size=12)


@given(request_streams(), split_points)
@settings(max_examples=150)
def test_split_feed_parses_like_one_feed(requests, cuts):
    """Cut anywhere, a valid stream gives the parser the requests one
    whole feed gives it."""
    stream, count = requests
    whole, error = _feed(stream, [])
    assert error is None
    assert len(whole) == count
    assert _feed(stream, cuts) == (whole, None)


@given(request_streams(), st.data(), split_points)
@settings(max_examples=150)
def test_split_feed_fails_like_one_feed(requests, data, cuts):
    """A corrupted or truncated stream raises the same error class (and
    yields the same requests before it) however it is cut."""
    stream, _ = requests
    where = data.draw(st.integers(0, len(stream)))
    damage = data.draw(st.sampled_from(
        [b"", b"\n", b"\r", b"x", b" ", b":", b"\r\n", b"\x00"]))
    cut = data.draw(st.booleans())
    corrupted = stream[:where] + damage \
        + (b"" if cut else stream[where + 1:])
    assert _feed(corrupted, cuts) == _feed(corrupted, [])
