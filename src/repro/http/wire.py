"""HTTP/1.1 wire codec.

Serializes :class:`~repro.http.messages.Request`/``Response`` objects
and parses them back: requests with :class:`RequestParser`, a sans-IO
parser (bytes in, complete requests out) that the server feeds from
``data_received``, and responses from an ``asyncio.StreamReader``
(:func:`read_response`, the client's side).  Both split a head into
lines with :func:`_split_head`, read its fields with one field parser
(:func:`_parse_fields`) and frame a body by one rule
(:func:`_body_framing`): Content-Length or chunked transfer coding.
Both enforce size limits and reject messages that smell like request
smuggling (conflicting length framing, bare CR or LF).

Limits: the start line is at most ``MAX_START_LINE`` bytes and the whole
head at most ``MAX_HEADER_BLOCK`` (Catalyst's ``X-Etag-Config`` maps run
to 32 KiB on one field line); a chunk-size or trailer line is at most
``MAX_START_LINE`` and a body at most ``MAX_BODY``.  One ``readuntil``
is bounded by the stream's ``limit`` (asyncio's default is 64 KiB), so
the client opens its streams with ``limit=MAX_HEADER_BLOCK`` to admit a
full head; a head past the limit raises
:class:`~repro.http.errors.MessageTooLarge` either way.

This module carries the *real-socket* integration path; the discrete-event
experiments never serialize, they hand message objects across directly.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Union

from .errors import ConnectionClosed, MessageTooLarge, ProtocolError
from .headers import Headers
from .messages import Request, Response, status_reason

__all__ = [
    "serialize_request", "serialize_response", "serialize_response_parts",
    "RequestParser", "read_response",
    "MAX_START_LINE", "MAX_HEADER_BLOCK", "MAX_BODY",
]

MAX_START_LINE = 8 * 1024
MAX_HEADER_BLOCK = 256 * 1024   # X-Etag-Config headers can be large
MAX_BODY = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _head(start_line: str, headers: Headers,
          content_length: Optional[int]) -> bytes:
    """A message head straight from ``headers``' field list; a
    ``content_length`` the fields lack goes last."""
    lines = [start_line]
    lines.extend(map(": ".join, headers.items()))
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    lines += ("", "")
    return "\r\n".join(lines).encode("latin-1")


def serialize_request(request: Request) -> bytes:
    """Encode a request for the wire, adding Content-Length when needed."""
    body = request.body
    length = len(body) if body and "Content-Length" not in request.headers \
        else None
    return _head(f"{request.method} {request.url} {request.http_version}",
                 request.headers, length) + body


def serialize_response(response: Response) -> bytes:
    """Encode a response for the wire, adding Content-Length when needed."""
    head, body = serialize_response_parts(response)
    return head + body if body else head


def serialize_response_parts(response: Response) -> tuple[bytes, bytes]:
    """A response's head and the body that follows it (empty when the
    status has none): :func:`serialize_response` without joining them,
    so a writer sends the body without copying it once more."""
    headers = response.headers
    has_body = _response_may_have_body(response.status)
    length = len(response.body) if has_body \
        and "Content-Length" not in headers \
        and "Transfer-Encoding" not in headers else None
    reason = response.reason or status_reason(response.status)
    head = _head(f"{response.http_version} {response.status} {reason}",
                 headers, length)
    return head, response.body if has_body else b""


def _response_may_have_body(status: int) -> bool:
    return not (100 <= status < 200 or status in (204, 304))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _split_head(head: Union[bytes, bytearray]) -> list[str]:
    """The start line and field lines of a head that ends in its blank
    line, checked against the limits and for bare CR or LF."""
    if len(head) > MAX_HEADER_BLOCK:
        raise MessageTooLarge(f"message head of {len(head)} bytes exceeds "
                              f"{MAX_HEADER_BLOCK}")
    text = head.decode("latin-1")
    crlf = text.count("\r\n")
    if text.count("\r") != crlf or text.count("\n") != crlf:
        raise ProtocolError("bare CR or LF in message head")
    lines = text[:-4].split("\r\n")
    if len(lines[0]) > MAX_START_LINE:
        raise MessageTooLarge(f"start line of {len(lines[0])} bytes "
                              f"exceeds {MAX_START_LINE}")
    return lines


def _parse_fields(lines: list[str]) -> Headers:
    """Headers from a head's field lines (its start line excluded)."""
    headers = Headers()
    add = headers.add
    for line in lines:
        name, sep, value = line.partition(":")
        # no colon, obsolete line folding, or whitespace around the name
        if not sep or name != name.strip():
            raise ProtocolError(f"malformed header line: {line[:80]!r}")
        try:
            add(name, value)
        except ValueError as exc:  # a name with inner whitespace
            raise ProtocolError(str(exc)) from exc
    return headers


def _parse_request_head(lines: list[str]) -> Request:
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0][:80]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported version {version!r}")
    if not method.isalpha():
        raise ProtocolError(f"malformed method {method!r}")
    return Request(method=method, url=target,
                   headers=_parse_fields(lines[1:]), http_version=version)


def _body_framing(headers: Headers) -> tuple[str, int]:
    """Determine framing; rejects smuggling-prone combinations.

    Returns ``("length", n)``, ``("chunked", 0)``, or ``("none", 0)``.
    """
    te = headers.get_joined("Transfer-Encoding")
    cl_values = headers.get_all("Content-Length")
    if te is not None:
        if cl_values:
            raise ProtocolError(
                "both Transfer-Encoding and Content-Length present")
        codings = [c.strip().lower() for c in te.split(",") if c.strip()]
        if codings != ["chunked"]:
            raise ProtocolError(f"unsupported transfer coding: {te!r}")
        return ("chunked", 0)
    if cl_values:
        unique = {v.strip() for v in cl_values}
        if len(unique) != 1:
            raise ProtocolError("conflicting Content-Length values")
        raw = unique.pop()
        if not raw.isdigit():
            raise ProtocolError(f"invalid Content-Length: {raw!r}")
        length = int(raw)
        if length > MAX_BODY:
            raise MessageTooLarge(f"declared body of {length} bytes")
        return ("length", length)
    return ("none", 0)


def _chunk_size(line: bytes, total: int) -> int:
    """The size a chunk-size line declares; ``total`` is the body so far."""
    try:
        size = int(line.split(b";", 1)[0].strip(), 16)
    except ValueError:
        raise ProtocolError(f"bad chunk size: {line[:40]!r}") from None
    if size < 0:
        raise ProtocolError("negative chunk size")
    if total + size > MAX_BODY:
        raise MessageTooLarge("chunked body too large")
    return size


#: ``RequestParser._left`` while a chunked body waits for a chunk-size
#: line, and while it reads the trailer section
_SIZE_LINE = -1
_TRAILER = -2


class RequestParser:
    """Sans-IO HTTP/1.1 request parser: bytes in, complete requests out.

    :meth:`feed` appends bytes in pieces of any size, as they arrive;
    :meth:`next_request` returns the next complete :class:`Request`, or
    None until more bytes come, and raises
    :class:`~repro.http.errors.ProtocolError` (or ``MessageTooLarge``)
    for a stream that is not a request; :meth:`feed_eof` raises if the
    stream ended inside a message.  The parser does no I/O, so a server
    parses each request in the call that delivered its last byte.
    """

    __slots__ = ("_buffer", "_scan", "_request", "_left", "_chunks",
                 "_total")

    def __init__(self) -> None:
        #: bytes received and not yet parsed
        self._buffer = bytearray()
        #: where the search for the head's blank line resumes
        self._scan = 0
        #: a request whose head is parsed and whose body is still due
        self._request: Optional[Request] = None
        #: body bytes still due (Content-Length), or the bytes of the
        #: current chunk, or ``_SIZE_LINE``/``_TRAILER``
        self._left = 0
        #: the chunks read so far of a chunked body (None otherwise)
        self._chunks: Optional[list[bytes]] = None
        self._total = 0

    @property
    def pending(self) -> bool:
        """Whether a request has begun and is not complete yet."""
        return bool(self._buffer) or self._request is not None

    @property
    def buffered(self) -> int:
        """Bytes received and not yet parsed."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def next_request(self) -> Optional[Request]:
        """The next complete request, or None until more bytes come."""
        request = self._request
        if request is None:
            buffer = self._buffer
            end = buffer.find(b"\r\n\r\n", self._scan)
            if end < 0:
                if len(buffer) >= MAX_HEADER_BLOCK:
                    raise MessageTooLarge(f"message head exceeds "
                                          f"{MAX_HEADER_BLOCK} bytes")
                self._scan = max(0, len(buffer) - 3)
                return None
            end += 4
            request = _parse_request_head(_split_head(buffer[:end]))
            del buffer[:end]
            self._scan = 0
            framing, length = _body_framing(request.headers)
            if framing == "none":
                return request
            self._request = request
            if framing == "length":
                self._left = length
            else:
                self._left = _SIZE_LINE
                self._chunks = []
                self._total = 0
        body = self._body() if self._chunks is None else self._chunked()
        if body is None:
            return None
        request.body = body
        self._request = None
        return request

    def feed_eof(self) -> None:
        """The peer sent EOF: a head it cut is a ``ProtocolError``, a
        body it cut ``ConnectionClosed``; at a message boundary, nothing."""
        if self._request is not None:
            raise ConnectionClosed("body truncated")
        if self._buffer:
            raise ProtocolError("truncated message head")

    def _body(self) -> Optional[bytes]:
        buffer = self._buffer
        left = self._left
        if len(buffer) < left:
            return None
        body = bytes(buffer[:left])
        del buffer[:left]
        return body

    def _chunked(self) -> Optional[bytes]:
        buffer = self._buffer
        chunks = self._chunks
        while True:
            left = self._left
            if left >= 0:  # a chunk's data and its CRLF
                if len(buffer) < left + 2:
                    return None
                if buffer[left:left + 2] != b"\r\n":
                    raise ProtocolError("chunk missing terminating CRLF")
                chunks.append(bytes(buffer[:left]))
                del buffer[:left + 2]
                self._left = _SIZE_LINE
                continue
            end = buffer.find(b"\r\n")
            if end < 0 and len(buffer) < MAX_START_LINE:
                return None
            if end < 0 or end + 2 > MAX_START_LINE:
                raise MessageTooLarge(f"chunk line exceeds {MAX_START_LINE} "
                                      f"bytes")
            line = bytes(buffer[:end])
            del buffer[:end + 2]
            if left == _TRAILER:
                if not line:  # the blank line that ends the trailers
                    self._chunks = None
                    return b"".join(chunks)
                continue
            size = _chunk_size(line, self._total)
            self._total += size
            self._left = size if size else _TRAILER


async def _read_head(reader: asyncio.StreamReader) -> list[str]:
    """The start line and field lines of the next head on ``reader``,
    read with one ``readuntil`` bounded by the stream's ``limit``."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed before start of message")
        raise ProtocolError("truncated message head") from exc
    except asyncio.LimitOverrunError as exc:
        raise MessageTooLarge("message head exceeds stream limit") from exc
    return _split_head(head)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed before start of message")
        raise ProtocolError("truncated line") from exc
    except asyncio.LimitOverrunError as exc:
        raise MessageTooLarge("line exceeds stream limit") from exc
    if len(line) > MAX_START_LINE:
        raise MessageTooLarge(f"line of {len(line)} bytes exceeds "
                              f"{MAX_START_LINE}")
    return line[:-2]


async def _read_body(reader: asyncio.StreamReader,
                     headers: Headers) -> bytes:
    framing, length = _body_framing(headers)
    if framing == "none":
        return b""
    try:
        if framing == "length":
            return await reader.readexactly(length)
        chunks: list[bytes] = []
        total = 0
        while True:
            size = _chunk_size(await _read_line(reader), total)
            if size == 0:
                while await _read_line(reader):  # trailer section
                    pass
                return b"".join(chunks)
            total += size
            chunks.append(await reader.readexactly(size))
            if await reader.readexactly(2) != b"\r\n":
                raise ProtocolError("chunk missing terminating CRLF")
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosed("body truncated") from exc


async def read_response(reader: asyncio.StreamReader,
                        request_method: str = "GET") -> Response:
    """Read one response (framing depends on the request method)."""
    lines = await _read_head(reader)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2:
        raise ProtocolError(f"malformed status line: {lines[0][:80]!r}")
    version = parts[0]
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported version {version!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError(f"non-numeric status: {parts[1]!r}")
    reason = parts[2] if len(parts) == 3 else ""
    headers = _parse_fields(lines[1:])
    if request_method == "HEAD" or not _response_may_have_body(status):
        body = b""
    else:
        body = await _read_body(reader, headers)
    return Response(status=status, headers=headers, body=body,
                    http_version=version, reason=reason)
