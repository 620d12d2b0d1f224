"""Focused tests for asyncio client/server corner cases.

(The happy paths live in tests/integration/test_asyncio_http.py; these
cover the failure handling.)
"""

import asyncio
import os
import socket
import time

import pytest

from repro.http.aclient import AsyncHttpClient
from repro.http.aserver import AsyncHttpServer
from repro.http.errors import HttpError, RequestTimeout
from repro.http.messages import Request, Response
from repro.http.wire import MAX_HEADER_BLOCK, serialize_response


def run(coro):
    return asyncio.run(coro)


class TestClientErrors:
    def test_unsupported_scheme_rejected(self):
        async def scenario():
            async with AsyncHttpClient() as client:
                with pytest.raises(HttpError, match="scheme"):
                    await client.get("ftp://example.com/x")
        run(scenario())

    def test_missing_host_rejected(self):
        async def scenario():
            async with AsyncHttpClient() as client:
                with pytest.raises(HttpError, match="host"):
                    await client.get("http:///nohost")
        run(scenario())

    def test_closed_client_rejects_requests(self):
        async def scenario():
            client = AsyncHttpClient()
            await client.close()
            with pytest.raises(HttpError, match="closed"):
                await client.get("http://127.0.0.1:1/x")
        run(scenario())

    def test_request_timeout_raised(self):
        accepted = []

        async def never_responds(reader, writer):
            accepted.append(writer)
            await asyncio.sleep(10)

        async def scenario():
            server = await asyncio.start_server(never_responds,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncHttpClient(timeout_s=0.2) as client:
                    with pytest.raises(RequestTimeout):
                        await client.get(f"http://127.0.0.1:{port}/slow")
            finally:
                for writer in accepted:  # one per attempt
                    writer.close()
                server.close()
                await server.wait_closed()
        run(scenario())

    def test_stale_pooled_connection_retried(self):
        """Server closes idle connections; the next request must retry
        transparently on a fresh connection."""
        async def scenario():
            handler = lambda req: Response(body=req.path.encode())
            async with AsyncHttpServer(handler,
                                       keepalive_timeout_s=0.15) as server:
                async with AsyncHttpClient() as client:
                    first = await client.get(server.base_url + "/one")
                    await asyncio.sleep(0.4)  # server times the conn out
                    second = await client.get(server.base_url + "/two")
                    return first.response.body, second.response.body
        first, second = run(scenario())
        assert first == b"/one"
        assert second == b"/two"


def _count_tasks(created: list):
    """A task factory that records each coroutine it starts."""
    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)
    return factory


_ASYNCIO_DIR = os.path.dirname(asyncio.__file__)


def _own_tasks(created: list) -> list[str]:
    """The recorded coroutines that are not asyncio's own (the event
    loop starts one to accept each connection)."""
    return [coro.__qualname__ for coro in created
            if not coro.cr_code.co_filename.startswith(_ASYNCIO_DIR)]


class TestClientRequestPath:
    def test_keep_alive_gets_start_no_task(self):
        """One timer per exchange, not ``asyncio.wait_for``, which
        starts a Task per call on Python 3.10 and 3.11."""
        created = []

        async def scenario():
            asyncio.get_running_loop().set_task_factory(
                _count_tasks(created))
            async with AsyncHttpServer(
                    lambda req: Response(body=b"ok")) as server:
                async with AsyncHttpClient() as client:
                    await client.get(server.base_url + "/warm")
                    before = len(created)
                    for i in range(100):
                        result = await client.get(
                            f"{server.base_url}/r{i}")
                        assert result.response.body == b"ok"
                        assert result.timing.reused_connection
                    return created[before:]

        assert run(scenario()) == []

    def test_timeout_leaves_outer_cancellation_alone(self):
        """A timed-out exchange raises RequestTimeout and leaves the
        calling task with no cancellation pending."""
        async def never_answers(reader, writer):
            await reader.read()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(never_answers,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncHttpClient(timeout_s=0.1,
                                           max_retries=0) as client:
                    with pytest.raises(RequestTimeout):
                        await client.get(f"http://127.0.0.1:{port}/x")
                    task = asyncio.current_task()
                    if hasattr(task, "cancelling"):  # Python 3.11+
                        assert task.cancelling() == 0
                    await asyncio.sleep(0.01)  # not cancelled
            finally:
                server.close()
                await server.wait_closed()
        run(scenario())

    def test_dials_start_no_task(self):
        """Each dial runs under the exchange's timer, not
        ``asyncio.wait_for``: a server answering ``Connection: close``
        makes every GET dial, and no dial starts a Task."""
        created = []

        async def scenario():
            asyncio.get_running_loop().set_task_factory(
                _count_tasks(created))
            handler = lambda req: Response(
                body=b"ok", headers={"Connection": "close"})
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    before = len(created)
                    for i in range(10):
                        result = await client.get(
                            f"{server.base_url}/r{i}")
                        assert result.response.body == b"ok"
                        assert not result.timing.reused_connection
                    return created[before:]

        created = run(scenario())
        assert _own_tasks(created) == []
        assert [coro.__qualname__ for coro in created
                if coro.__qualname__ == "open_connection"] == []

    def test_hanging_dial_is_a_retried_timeout(self, monkeypatch):
        """A dial that never completes is a :class:`RequestTimeout`:
        retried within the budget and counted by the breaker, as
        ``request()`` promises for timeouts."""
        dials = []

        async def never_connects(host, port, **kwargs):
            dials.append((host, port))
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio, "open_connection", never_connects)
        url = "http://127.0.0.1:9/x"

        async def scenario():
            async with AsyncHttpClient(timeout_s=0.05, max_retries=2,
                                       backoff_base_s=0.001) as client:
                with pytest.raises(RequestTimeout, match="connect"):
                    await client.get(url)
                return client.retries, client.breaker_for(url).failures

        retries, failures = run(scenario())
        assert len(dials) == 3      # max_retries + 1 attempts
        assert retries == 2
        assert failures == 3

    def test_redial_reports_a_new_connection(self):
        """After the server idle-closes the pooled connection, the
        retried exchange runs on a redialled one: ``reused_connection``
        is False and ``connect_done`` follows the redial."""
        async def scenario():
            handler = lambda req: Response(body=req.path.encode())
            async with AsyncHttpServer(handler,
                                       keepalive_timeout_s=0.15) as server:
                async with AsyncHttpClient() as client:
                    dialled = []
                    new_connection = client._new_connection

                    async def recording(key):
                        result = await new_connection(key)
                        dialled.append(time.monotonic())
                        return result

                    client._new_connection = recording
                    await client.get(server.base_url + "/one")
                    await asyncio.sleep(0.4)  # server times the conn out
                    second = await client.get(server.base_url + "/two")
                    return second, dialled

        second, dialled = run(scenario())
        assert second.response.body == b"/two"
        assert len(dialled) == 2  # the first GET and the redial
        assert second.timing.reused_connection is False
        assert second.timing.connect_done >= dialled[1]


class TestServerBehaviour:
    def test_connection_close_honoured(self):
        def handler(request):
            return Response(body=b"x",
                            headers={"Connection": "close"})

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                # the server closes right after the response, long before
                # its keep-alive deadline
                data = await asyncio.wait_for(reader.read(), timeout=1.0)
                writer.close()
                return data
        data = run(scenario())
        assert b"200" in data
        assert b"Connection: close" in data

    def test_close_among_request_connection_tokens_honoured(self):
        """``Connection`` is a token list: ``close, TE`` closes too."""
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET / HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close, TE\r\n\r\n")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=1.0)
                writer.close()
                return data
        data = run(scenario())
        assert b"200" in data
        assert b"Connection: close" in data

    def test_client_drops_connection_on_close_token(self):
        """A response listing ``close`` among its ``Connection`` tokens
        ends the connection, so the next request dials a new one."""
        def handler(request):
            return Response(body=b"x",
                            headers={"Connection": "close, TE"})

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    first = await client.get(server.base_url + "/a")
                    second = await client.get(server.base_url + "/b")
                    return first.timing, second.timing
        first, second = run(scenario())
        assert first.reused_connection is False
        assert second.reused_connection is False

    def test_http10_defaults_to_close(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET / HTTP/1.0\r\n\r\n")
                await writer.drain()
                data = await reader.read()
                writer.close()
                return data
        assert b"200" in run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response()) as server:
                with pytest.raises(RuntimeError):
                    await server.start()
        run(scenario())

    def test_requests_served_counter(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                async with AsyncHttpClient() as client:
                    for _ in range(3):
                        await client.get(server.base_url + "/")
                return server.requests_served
        assert run(scenario()) == 3

    def test_non_response_handler_result_is_500(self):
        async def scenario():
            async with AsyncHttpServer(lambda req: "oops") as server:
                async with AsyncHttpClient() as client:
                    return (await client.get(server.base_url + "/")).response
        assert run(scenario()).status == 500


class TestSlowLoris:
    @pytest.mark.faults
    def test_stalled_headers_get_408(self):
        """A peer that sends a request line then stalls mid-headers is
        answered 408 and disconnected, not held open."""
        async def scenario():
            handler = lambda req: Response(body=b"ok")
            async with AsyncHttpServer(handler,
                                       header_read_timeout_s=0.2) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET /x HTTP/1.1\r\nHost: h\r\n")  # no end
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                assert b"408" in data.split(b"\r\n")[0]
                assert b"Connection: close" in data
                assert server.timeouts_408 == 1
                assert server.requests_served == 0
        run(scenario())

    @pytest.mark.faults
    def test_idle_keepalive_closed_silently(self):
        """Between requests (no request line yet) a quiet connection is
        closed with no status line — idleness is not an offence."""
        async def scenario():
            handler = lambda req: Response(body=b"ok")
            async with AsyncHttpServer(handler,
                                       keepalive_timeout_s=0.15,
                                       header_read_timeout_s=5.0) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                data = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                assert data == b""  # silent close, no 408
                assert server.timeouts_408 == 0
        run(scenario())

    @pytest.mark.faults
    def test_prompt_request_unaffected_by_header_deadline(self):
        async def scenario():
            handler = lambda req: Response(body=b"ok")
            async with AsyncHttpServer(handler,
                                       header_read_timeout_s=0.3) as server:
                async with AsyncHttpClient() as client:
                    result = await client.get(server.base_url + "/x")
                    assert result.response.status == 200
        run(scenario())


def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload`` on a blocking socket; read until the server
    closes the connection (or resets it after answering)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestResponseBytes:
    """The server writes a response's head and its body apart; a raw
    client reads exactly ``serialize_response``'s bytes."""

    @pytest.mark.parametrize("method, condition, closes", [
        ("GET", False, "request"),     # 200 with a body
        ("GET", True, "request"),      # 304
        ("HEAD", False, "request"),    # 200 head only
        ("GET", False, "handler"),     # the handler's Connection: close
    ])
    def test_raw_client_reads_the_serialized_response(self, method,
                                                      condition, closes):
        from repro.server.site import OriginSite
        from repro.server.static import StaticServer
        from repro.workload.sitegen import generate_site

        site = OriginSite(generate_site("https://bytes.example", seed=5),
                          materialize_fully=True)
        url = max((u for u in site.all_urls() if u not in site.spec.pages),
                  key=lambda u: site.resource_spec(u).size_bytes)
        origin = StaticServer(site)
        answered = []

        def handler(request):
            response = origin.handle(request, 0.0)
            if closes == "handler":
                response.headers.set("Connection", "close")
            answered.append(response)
            return response

        head = f"{method} {url} HTTP/1.1\r\nHost: h\r\n"
        if condition:
            etag = origin.handle(Request(url=url), 0.0).headers["ETag"]
            head += f"If-None-Match: {etag}\r\n"
        if closes == "request":
            head += "Connection: close\r\n"

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                return await asyncio.get_running_loop().run_in_executor(
                    None, _raw_exchange, server.port,
                    (head + "\r\n").encode())

        raw = run(scenario())
        [response] = answered
        assert response.status == (304 if condition else 200)
        assert raw == serialize_response(response)
        assert len(raw) > (100_000 if method == "GET" and not condition
                           else 0)


class TestRequestPath:
    """One buffered head read and one deadline timer per connection."""

    def test_keep_alive_requests_start_no_task(self):
        """A connection to a synchronous handler starts no Task from
        accept to close: every request is answered in the callback that
        delivered it."""
        created = []

        async def scenario():
            asyncio.get_running_loop().set_task_factory(
                _count_tasks(created))
            async with AsyncHttpServer(
                    lambda req: Response(body=b"ok")) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                for _ in range(101):
                    writer.write(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 ")
                    assert await reader.readexactly(2) == b"ok"
                writer.close()
                await writer.wait_closed()
                while server.connections:  # the server's side closes
                    await asyncio.sleep(0.01)
                return _own_tasks(created), server.requests_served

        tasks, served = run(scenario())
        assert served == 101
        assert tasks == []

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_pipelined_requests_in_one_segment_answered_in_order(
            self, asynchronous):
        """Two requests in one write get their responses in request
        order, though the first takes longer to answer."""
        def sync_handler(request):
            return Response(body=request.path.encode())

        async def async_handler(request):
            await asyncio.sleep(0.05 if request.path == "/first" else 0)
            return Response(body=request.path.encode())

        async def scenario():
            handler = async_handler if asynchronous else sync_handler
            async with AsyncHttpServer(handler) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET /first HTTP/1.1\r\nHost: h\r\n\r\n"
                             b"GET /second HTTP/1.1\r\nHost: h\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return data, server.requests_served

        data, served = run(scenario())
        assert served == 2
        first, second = data.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert first.endswith(b"\r\n\r\n/first")
        assert second.endswith(b"\r\n\r\n/second")

    @pytest.mark.parametrize("payload,asynchronous,status", [
        (b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n", False, b"200"),
        (b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n", True, b"200"),
        (b"GET /x HTTP/1.1\r\nHost: h\r\n", False, b"400"),
    ], ids=["request-sync", "request-async", "cut-head"])
    def test_half_close(self, payload, asynchronous, status):
        """A peer that half-closes after a whole request still gets its
        response; one that cut its head gets a 400; then the server
        closes."""
        async def handler(request):
            await asyncio.sleep(0.05)
            return Response(body=b"ok")

        async def scenario():
            async with AsyncHttpServer(
                    handler if asynchronous
                    else lambda req: Response(body=b"ok")) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(payload)
                writer.write_eof()
                data = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return data

        data = run(scenario())
        assert data.startswith(b"HTTP/1.1 " + status + b" ")
        assert data.count(b"HTTP/1.1 ") == 1

    def test_unread_responses_pause_dispatch(self):
        """A peer that pipelines large-response requests without reading
        stops the server at the send buffer's high-water mark instead of
        growing it, then receives every response in order."""
        body_size = 1 << 20
        count = 32

        def handler(request):
            index = request.path.encode()
            return Response(body=index + b"." * (body_size - len(index)))

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"".join(
                    b"GET /%d HTTP/1.1\r\nHost: h\r\n\r\n" % i
                    for i in range(count)))
                await writer.drain()
                served = -1
                while served != server.requests_served:  # until it stalls
                    served = server.requests_served
                    await asyncio.sleep(0.2)
                [conn] = server._conns
                buffered = conn.transport.get_write_buffer_size()
                high = conn.transport.get_write_buffer_limits()[1]
                paths = []
                for _ in range(count):
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 ")
                    body = await reader.readexactly(body_size)
                    paths.append(body.split(b".", 1)[0])
                writer.close()
                await writer.wait_closed()
                return served, buffered, high, paths

        served, buffered, high, paths = run(scenario())
        assert served < count
        assert buffered <= high + body_size + 1024
        assert paths == [b"/%d" % i for i in range(count)]

    @pytest.mark.faults
    def test_active_connection_outlives_keepalive_timeout(self):
        """Each request moves the keep-alive deadline: a connection used
        every 0.1 s stays open past a 0.3 s keep-alive timeout."""
        async def scenario():
            async with AsyncHttpServer(lambda req: Response(body=b"ok"),
                                       keepalive_timeout_s=0.3) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                for _ in range(10):
                    writer.write(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
                    await writer.drain()
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=5)
                    assert head.startswith(b"HTTP/1.1 200 ")
                    assert await reader.readexactly(2) == b"ok"
                    await asyncio.sleep(0.1)
                writer.close()
                await writer.wait_closed()
                return server.requests_served

        assert run(scenario()) == 10

    @pytest.mark.faults
    def test_head_in_three_parts_within_deadline_served(self):
        async def scenario():
            async with AsyncHttpServer(lambda req: Response(body=b"ok"),
                                       header_read_timeout_s=1.0) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                for part in (b"GET /x HT", b"TP/1.1\r\nHost: h\r\n",
                             b"Accept: */*\r\n\r\n"):
                    writer.write(part)
                    await writer.drain()
                    await asyncio.sleep(0.15)
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5)
                writer.close()
                await writer.wait_closed()
                return head, server.timeouts_408

        head, timeouts = run(scenario())
        assert head.startswith(b"HTTP/1.1 200 ")
        assert timeouts == 0

    @pytest.mark.faults
    def test_stalled_request_line_gets_408(self):
        """Half a request line then silence falls under the header
        deadline (408), not the keep-alive one (silent close): the first
        byte commits the peer to a whole head."""
        async def scenario():
            async with AsyncHttpServer(lambda req: Response(body=b"ok"),
                                       keepalive_timeout_s=5.0,
                                       header_read_timeout_s=0.2) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET /x HT")
                await writer.drain()
                started = time.monotonic()
                data = await asyncio.wait_for(reader.read(), timeout=5)
                elapsed = time.monotonic() - started
                writer.close()
                await writer.wait_closed()
                return data, elapsed, server.timeouts_408

        data, elapsed, timeouts = run(scenario())
        assert data.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in data
        assert timeouts == 1
        assert 0.15 < elapsed < 4.0

    def test_head_above_default_stream_limit_served(self):
        """A 100 KiB head is past asyncio's default 64 KiB stream limit;
        both ends open their streams with room for a whole head."""
        big = {f"X-Big-{i}": "v" * 20 * 1024 for i in range(5)}

        async def scenario():
            handler = lambda req: Response(
                body=str(req.headers.wire_size()).encode(), headers=big)
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    return (await client.request(Request(
                        url=server.base_url + "/big", headers=big))).response

        response = run(scenario())
        assert response.status == 200
        assert int(response.body) > 100 * 1024
        assert response.headers["X-Big-4"] == "v" * 20 * 1024

    def test_head_over_max_header_block_gets_400(self):
        head = (b"GET /x HTTP/1.1\r\nHost: h\r\nX-Pad: "
                + b"p" * MAX_HEADER_BLOCK + b"\r\n\r\n")

        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"ok")) as server:
                data = await asyncio.get_running_loop().run_in_executor(
                    None, _raw_exchange, server.port, head)
                return data, server.requests_served

        data, served = run(scenario())
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in data
        assert served == 0


class TestClientRetryBudget:
    @pytest.mark.faults
    def test_connection_drops_retried_until_success(self):
        """A server that kills the first N connections mid-exchange is
        absorbed by the retry budget."""
        drops = 2

        async def flaky(reader, writer):
            nonlocal drops
            await reader.readuntil(b"\r\n\r\n")
            if drops > 0:
                drops -= 1
                writer.close()
                return
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(flaky, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncHttpClient(max_retries=3,
                                           backoff_base_s=0.01) as client:
                    result = await client.get(f"http://127.0.0.1:{port}/r")
                    assert result.response.status == 200
                    assert result.attempts == 3
                    assert client.retries == 2
            finally:
                server.close()
                await server.wait_closed()
        run(scenario())

    @pytest.mark.faults
    def test_budget_exhaustion_propagates_failure(self):
        async def always_drops(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.close()

        async def scenario():
            server = await asyncio.start_server(always_drops,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncHttpClient(max_retries=1,
                                           backoff_base_s=0.01) as client:
                    with pytest.raises(Exception):
                        await client.get(f"http://127.0.0.1:{port}/r")
                    assert client.retries == 1
            finally:
                server.close()
                await server.wait_closed()
        run(scenario())

    @pytest.mark.faults
    def test_retry_backoff_is_deterministic(self):
        from repro.netsim.faults import backoff_delay
        client = AsyncHttpClient(retry_seed=5)
        a = backoff_delay(0, client.backoff_base_s, client.backoff_cap_s,
                          client.retry_seed, "/u")
        b = backoff_delay(0, client.backoff_base_s, client.backoff_cap_s,
                          client.retry_seed, "/u")
        assert a == b
