"""Serving-tier hardening: admission control, shedding, graceful drain.

The overload acceptance test is the PR's contract: with an inflight cap
of K and a burst of 4K concurrent requests, every request is answered
exactly one of {200, 503 + parseable Retry-After} — no socket errors,
no hangs — the served + shed counters sum to the burst size, and the
final drain leaves zero lingering connection tasks.
"""

import asyncio
import json

import pytest

from repro.http.aclient import AsyncHttpClient
from repro.http.aserver import STATS_PATH, AsyncHttpServer
from repro.http.messages import Response
from repro.obs.metrics import MetricsRegistry


def run(coro):
    return asyncio.run(coro)


async def _raw_get(host, port, path="/", extra=b""):
    """One raw request -> (status, headers dict, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"GET " + path.encode() + b" HTTP/1.1\r\n"
                     b"Host: t\r\nConnection: close\r\n\r\n" + extra)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


class TestInflightCap:
    def test_burst_sheds_exactly_past_cap(self):
        """K slots, burst of 4K: every request gets 200 or 503+hint and
        the counters account for the whole burst."""
        cap, burst = 4, 16

        async def scenario():
            release = asyncio.Event()

            async def handler(request):
                await release.wait()
                return Response(body=b"ok")

            server = AsyncHttpServer(handler, max_inflight=cap,
                                     retry_after_s=2.0, shed_seed=3)
            await server.start()
            try:
                fetches = [asyncio.ensure_future(
                    _raw_get(server.host, server.port, f"/r{i}"))
                    for i in range(burst)]
                # Wait until the cap is saturated and the rest are shed,
                # then release the workers.
                while server.shed_503 < burst - cap:
                    await asyncio.sleep(0.01)
                assert server.inflight == cap
                release.set()
                responses = await asyncio.gather(*fetches)
            finally:
                report = await server.stop(drain_s=2.0)
            return server, report, responses

        server, report, responses = run(scenario())
        statuses = sorted(status for status, _, _ in responses)
        assert statuses == [200] * cap + [503] * (burst - cap)
        for status, headers, _ in responses:
            if status == 503:
                hint = int(headers["retry-after"])  # parseable, jittered
                assert 2 <= hint <= 4
        assert server.requests_served == cap
        assert server.shed_503 == burst - cap
        assert server.requests_served + server.shed_503 == burst
        assert report["hard_cancelled"] == 0

    def test_drain_leaves_no_lingering_tasks(self):
        async def scenario():
            async def handler(request):
                await asyncio.sleep(0.05)
                return Response(body=b"ok")

            server = AsyncHttpServer(handler)
            await server.start()
            async with AsyncHttpClient() as client:
                await client.get(server.base_url + "/warm")
                # keep-alive leaves the connection parked on the server
                assert server.connections == 1
            await server.stop(drain_s=1.0)
            assert server.connections == 0
            others = [task for task in asyncio.all_tasks()
                      if task is not asyncio.current_task()]
            assert others == []
        run(scenario())

    def test_no_caps_means_no_shedding(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                async with AsyncHttpClient() as client:
                    for _ in range(5):
                        await client.get(server.base_url + "/")
                return server.shed_503, server.requests_served
        shed, served = run(scenario())
        assert (shed, served) == (0, 5)


class TestConnectionCap:
    def test_excess_connection_shed_and_closed(self):
        async def scenario():
            release = asyncio.Event()

            async def handler(request):
                await release.wait()
                return Response(body=b"ok")

            server = AsyncHttpServer(handler, max_connections=2,
                                     retry_after_s=1.0)
            await server.start()
            try:
                busy = [asyncio.ensure_future(
                    _raw_get(server.host, server.port, f"/b{i}"))
                    for i in range(2)]
                while server.connections < 2:
                    await asyncio.sleep(0.01)
                status, headers, _ = await _raw_get(server.host,
                                                    server.port, "/over")
                release.set()
                await asyncio.gather(*busy)
            finally:
                await server.stop(drain_s=1.0)
            return server, status, headers

        server, status, headers = run(scenario())
        assert status == 503
        assert headers["connection"] == "close"
        assert int(headers["retry-after"]) >= 1
        assert server.shed_connections == 1
        assert server.requests_served == 2

    def test_draining_server_refuses_new_connections(self):
        async def scenario():
            async def handler(request):
                await asyncio.sleep(0.3)
                return Response(body=b"ok")

            server = AsyncHttpServer(handler)
            await server.start()
            slow = asyncio.ensure_future(
                _raw_get(server.host, server.port, "/slow"))
            while server.inflight == 0:
                await asyncio.sleep(0.01)
            stop = asyncio.ensure_future(server.stop(drain_s=2.0))
            await asyncio.sleep(0.05)
            # The listener is already closed: a new connection is refused
            # at the socket layer, not left hanging.
            with pytest.raises(OSError):
                await _raw_get(server.host, server.port, "/late")
            status, headers, _ = await slow
            report = await stop
            return status, headers, report

        status, headers, report = run(scenario())
        assert status == 200  # in-flight request finished during drain
        assert headers["connection"] == "close"
        assert report["hard_cancelled"] == 0


class TestPipeliningGuard:
    def test_connection_recycled_after_request_cap(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x"),
                    max_requests_per_connection=2) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                try:
                    for _ in range(2):
                        writer.write(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
                        await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), timeout=5)
                finally:
                    writer.close()
                return raw, server.requests_served

        raw, served = run(scenario())
        assert served == 2
        # the second (cap-th) response forced the close
        assert raw.count(b"HTTP/1.1 200") == 2
        assert b"Connection: close" in raw


class TestRetryAfterHints:
    def test_hints_deterministic_and_jittered(self):
        a = AsyncHttpServer(lambda req: Response(), shed_seed=11,
                            retry_after_s=4.0)
        b = AsyncHttpServer(lambda req: Response(), shed_seed=11,
                            retry_after_s=4.0)
        hints_a, hints_b = [], []
        for _ in range(8):
            hints_a.append(a._retry_after_hint())
            hints_b.append(b._retry_after_hint())
            a.shed_503 += 1
            b.shed_503 += 1
        assert hints_a == hints_b  # same seed, same ordinals
        assert len(set(hints_a)) > 1  # jittered across ordinals
        assert all(4 <= hint <= 8 for hint in hints_a)

    def test_hint_floor_is_one_second(self):
        server = AsyncHttpServer(lambda req: Response(),
                                 retry_after_s=0.01)
        assert server._retry_after_hint() >= 1


class TestDrainCancellation:
    def test_zero_drain_hard_cancels_busy_connections(self):
        async def scenario():
            async def handler(request):
                await asyncio.sleep(30)
                return Response(body=b"never")

            server = AsyncHttpServer(handler)
            await server.start()
            hung = asyncio.ensure_future(
                _raw_get(server.host, server.port, "/hang"))
            while server.inflight == 0:
                await asyncio.sleep(0.01)
            report = await server.stop(drain_s=0.0)
            # the cancelled handler has finished and given its slot back
            lingering = [task for task in asyncio.all_tasks()
                         if task not in (asyncio.current_task(), hung)]
            inflight = server.inflight
            hung.cancel()
            try:
                await hung
            except (asyncio.CancelledError, Exception):
                pass
            return report, lingering, inflight

        report, lingering, inflight = run(scenario())
        assert report["connections"] == 1
        assert report["hard_cancelled"] == 1
        assert lingering == []
        assert inflight == 0

    def test_partial_head_does_not_hold_drain(self):
        """Only a dispatched request holds the drain: an idle peer and a
        peer still sending its head are reclaimed at once."""
        async def scenario():
            async def handler(request):
                await asyncio.sleep(0.2)
                return Response(body=b"ok")

            server = AsyncHttpServer(handler)
            await server.start()
            peers = [await asyncio.open_connection(server.host, server.port)
                     for _ in range(3)]
            (_, partial), (reader, dispatched) = peers[1], peers[2]
            partial.write(b"GET /x HT")
            dispatched.write(b"GET /slow HTTP/1.1\r\nHost: t\r\n\r\n")
            while server.inflight == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # the partial head has arrived
            report = await server.stop(drain_s=1.0)
            raw = await asyncio.wait_for(reader.read(), timeout=1.0)
            for _, writer in peers:
                writer.close()
            return report, raw

        report, raw = run(scenario())
        assert report["connections"] == 3
        assert report["hard_cancelled"] == 0
        assert report["drain_s"] < 0.6
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in raw

    def test_stop_without_start_reports_empty(self):
        async def scenario():
            server = AsyncHttpServer(lambda req: Response())
            return await server.stop(drain_s=1.0)
        assert run(scenario()) == {"connections": 0, "hard_cancelled": 0,
                                   "drain_s": 0.0}


class TestStatsUnderOverload:
    def test_stats_answers_while_saturated(self):
        """The ops endpoint bypasses request-level shedding and reports
        counters that match the server's own."""
        async def scenario():
            release = asyncio.Event()

            async def handler(request):
                await release.wait()
                return Response(body=b"ok")

            metrics = MetricsRegistry()
            server = AsyncHttpServer(handler, max_inflight=1,
                                     metrics=metrics)
            await server.start()
            try:
                busy = asyncio.ensure_future(
                    _raw_get(server.host, server.port, "/busy"))
                while server.inflight == 0:
                    await asyncio.sleep(0.01)
                shed_status, _, _ = await _raw_get(server.host,
                                                   server.port, "/over")
                status, _, body = await _raw_get(
                    server.host, server.port, STATS_PATH + "?dump=1")
                release.set()
                await busy
            finally:
                await server.stop(drain_s=1.0)
            return shed_status, status, json.loads(body), metrics

        shed_status, status, payload, metrics = run(scenario())
        assert shed_status == 503
        assert status == 200
        admission = payload["admission"]
        assert admission["inflight"] == 1
        assert admission["max_inflight"] == 1
        assert admission["shed_503"] == 1
        assert admission["draining"] is False
        # the registry saw the same events the counters did
        assert payload["metrics"]["http.shed_503"] == 1
        assert "metrics_dump" in payload  # mergeable fleet wire format
        assert metrics.counter("http.shed_503").snapshot() == 1
        assert metrics.gauge("http.inflight").snapshot() == 0

    def test_slow_loris_counted_in_metrics(self):
        async def scenario():
            metrics = MetricsRegistry()
            async with AsyncHttpServer(lambda req: Response(body=b"ok"),
                                       header_read_timeout_s=0.15,
                                       metrics=metrics) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"GET /x HTTP/1.1\r\nHost: h\r\n")  # stall
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                return raw, metrics, server.timeouts_408

        raw, metrics, timeouts = run(scenario())
        assert b"408" in raw.split(b"\r\n")[0]
        assert timeouts == 1
        assert metrics.counter("http.timeouts_408").snapshot() == 1
