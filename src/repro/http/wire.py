"""HTTP/1.1 wire codec over asyncio streams.

Serializes :class:`~repro.http.messages.Request`/``Response`` objects and
parses them back from ``asyncio.StreamReader``.  A message head (start
line and header fields) is read with one ``readuntil(b"\\r\\n\\r\\n")``
and split into lines in one pass; a request's first byte is read on its
own first (:func:`read_request_start`), so a server can tell an idle
connection from a started request.  Supports Content-Length and chunked
transfer coding, enforces size limits, and rejects messages that smell
like request smuggling (conflicting length framing, bare CR or LF).

Limits: the start line is at most ``MAX_START_LINE`` bytes and the whole
head at most ``MAX_HEADER_BLOCK`` (Catalyst's ``X-Etag-Config`` maps run
to 32 KiB on one field line).  One ``readuntil`` is bounded by the
stream's ``limit`` (asyncio's default is 64 KiB), so open streams with
``limit=MAX_HEADER_BLOCK`` to admit a full head; a head past the limit
raises :class:`~repro.http.errors.MessageTooLarge` either way.

This module carries the *real-socket* integration path; the discrete-event
experiments never serialize, they hand message objects across directly.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from .errors import ConnectionClosed, MessageTooLarge, ProtocolError
from .headers import Headers
from .messages import Request, Response, status_reason

__all__ = [
    "serialize_request", "serialize_response",
    "read_request", "read_request_start", "read_request_tail",
    "read_response",
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
    headers = response.headers
    has_body = _response_may_have_body(response.status)
    length = len(response.body) if has_body \
        and "Content-Length" not in headers \
        and "Transfer-Encoding" not in headers else None
    reason = response.reason or status_reason(response.status)
    head = _head(f"{response.http_version} {response.status} {reason}",
                 headers, length)
    return head + response.body if has_body else head


def _response_may_have_body(status: int) -> bool:
    return not (100 <= status < 200 or status in (204, 304))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

async def _read_head(reader: asyncio.StreamReader,
                     start: bytes = b"") -> list[str]:
    """The start line and field lines of the head that ``start`` began.

    One ``readuntil`` takes the head through its blank line, bounded by
    the stream's ``limit``.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not (start or exc.partial):
            raise ConnectionClosed("peer closed before start of message")
        raise ProtocolError("truncated message head") from exc
    except asyncio.LimitOverrunError as exc:
        raise MessageTooLarge("message head exceeds stream limit") from exc
    if start:
        head = start + head
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


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed before start of message")
        raise ProtocolError("truncated line") from exc
    except asyncio.LimitOverrunError as exc:
        raise MessageTooLarge("line exceeds stream limit") from exc
    if len(line) > limit:
        raise MessageTooLarge(f"line of {len(line)} bytes exceeds {limit}")
    return line[:-2]


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


async def _read_body(reader: asyncio.StreamReader,
                     headers: Headers) -> bytes:
    framing, length = _body_framing(headers)
    if framing == "none":
        return b""
    if framing == "length":
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionClosed("body truncated") from exc
    # chunked
    chunks: list[bytes] = []
    total = 0
    while True:
        size_line = await _read_line(reader, MAX_START_LINE)
        size_text = size_line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise ProtocolError(f"bad chunk size: {size_line[:40]!r}")
        if size < 0:
            raise ProtocolError("negative chunk size")
        total += size
        if total > MAX_BODY:
            raise MessageTooLarge("chunked body too large")
        if size == 0:
            # trailer section: read until blank line
            while True:
                trailer = await _read_line(reader, MAX_START_LINE)
                if not trailer:
                    return b"".join(chunks)
        try:
            chunks.append(await reader.readexactly(size))
            crlf = await reader.readexactly(2)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionClosed("chunk truncated") from exc
        if crlf != b"\r\n":
            raise ProtocolError("chunk missing terminating CRLF")


async def read_request_start(
        reader: asyncio.StreamReader) -> Optional[bytes]:
    """Wait for the first byte of the next request; None on clean EOF.

    Split out from :func:`read_request` so a server can apply *two*
    deadlines: a long keep-alive timeout while the connection is idle
    (no bytes yet — closing silently is fine) and a short header-read
    timeout once a first byte has committed the peer to sending a whole
    head (a stall there, request line included, is a slow-loris,
    answered 408).
    """
    return await reader.read(1) or None


async def read_request_tail(reader: asyncio.StreamReader,
                            start: bytes) -> Request:
    """Read the rest of the request that began with ``start``: its head
    in one buffered read, then its body."""
    lines = await _read_head(reader, start)
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0][:80]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported version {version!r}")
    if not method.isalpha():
        raise ProtocolError(f"malformed method {method!r}")
    headers = _parse_fields(lines[1:])
    body = await _read_body(reader, headers)
    return Request(method=method, url=target, headers=headers, body=body,
                   http_version=version)


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; returns None on clean EOF before any bytes."""
    start = await read_request_start(reader)
    if start is None:
        return None
    return await read_request_tail(reader, start)


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
