"""Integration tests: real TCP sockets, the same servers the DES measures.

This is the paper's deployment story made concrete: the identical
CatalystServer object that the simulator measures also serves real HTTP
over localhost through the asyncio front end.
"""

import asyncio
import json

import pytest

from repro.http.aclient import AsyncHttpClient
from repro.http.aserver import AsyncHttpServer
from repro.http.headers import Headers
from repro.http.messages import Request, Response
from repro.http.wire import RequestParser, serialize_response
from repro.server.adapter import as_async_handler
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.corpus import make_corpus
from repro.workload.sitegen import generate_site


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def site():
    return OriginSite(generate_site("https://real.example", seed=13,
                                    median_resources=15),
                      materialize_fully=True)


class TestRawServer:
    def test_echo_handler(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=req.path.encode())) as server:
                async with AsyncHttpClient() as client:
                    result = await client.get(f"{server.base_url}/hello")
                    return result.response
        response = run(scenario())
        assert response.status == 200
        assert response.body == b"/hello"

    def test_async_handler_supported(self):
        async def handler(request):
            await asyncio.sleep(0)
            return Response(body=b"async-ok")

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    return (await client.get(server.base_url + "/")).response
        assert run(scenario()).body == b"async-ok"

    def test_handler_exception_is_500(self):
        def handler(request):
            raise RuntimeError("boom")

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    return (await client.get(server.base_url + "/")).response
        assert run(scenario()).status == 500

    def test_keep_alive_reuses_connection(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                async with AsyncHttpClient() as client:
                    first = await client.get(server.base_url + "/a")
                    second = await client.get(server.base_url + "/b")
                    return first.timing, second.timing
        first, second = run(scenario())
        assert not first.reused_connection
        assert second.reused_connection

    def test_many_concurrent_requests(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=req.path.encode())) as server:
                async with AsyncHttpClient() as client:
                    results = await asyncio.gather(*[
                        client.get(f"{server.base_url}/r{i}")
                        for i in range(24)])
                    return [r.response.body for r in results]
        bodies = run(scenario())
        assert bodies == [f"/r{i}".encode() for i in range(24)]

    def test_latency_injection_visible(self):
        async def timed(latency):
            async with AsyncHttpServer(lambda req: Response(body=b"x"),
                                       latency_s=latency) as server:
                async with AsyncHttpClient() as client:
                    result = await client.get(server.base_url + "/")
                    return result.timing.total_s
        fast = run(timed(0.0))
        slow = run(timed(0.08))
        assert slow > fast + 0.05

    def test_bad_request_rejected(self):
        async def scenario():
            async with AsyncHttpServer(
                    lambda req: Response(body=b"x")) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"NOT A REQUEST\r\n\r\n")
                await writer.drain()
                data = await reader.read(64)
                writer.close()
                return data
        assert b"400" in run(scenario())


class TestCatalystOverSockets:
    def test_full_catalyst_flow(self, site):
        catalyst = CatalystServer(site)

        async def scenario():
            handler = as_async_handler(catalyst)
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    base = server.base_url
                    html = (await client.get(f"{base}/index.html")).response
                    assert html.status == 200
                    config = json.loads(html.headers["X-Etag-Config"])
                    assert config
                    # fetch one stapled resource and check its live ETag
                    url, expected_tag = next(iter(config.items()))
                    asset = (await client.get(base + url)).response
                    assert asset.status == 200
                    assert asset.etag.opaque == expected_tag
                    # conditional revisit of the HTML
                    revisit = (await client.request(Request(
                        url=f"{base}/index.html",
                        headers=Headers(
                            {"If-None-Match": html.headers["ETag"]}))
                    )).response
                    return revisit
        revisit = run(scenario())
        assert revisit.status == 304
        assert "X-Etag-Config" in revisit.headers

    def test_service_worker_script_served(self, site):
        catalyst = CatalystServer(site)

        async def scenario():
            async with AsyncHttpServer(as_async_handler(catalyst)) as server:
                async with AsyncHttpClient() as client:
                    return (await client.get(
                        server.base_url + "/cache-catalyst-sw.js")).response
        response = run(scenario())
        assert response.status == 200
        assert b"etagConfig" in response.body

    def test_time_scale_ages_content(self, site):
        import itertools
        ticker = itertools.count()
        clock = lambda: float(next(ticker))
        catalyst = CatalystServer(site)
        handler = as_async_handler(catalyst, clock=clock,
                                   time_scale=3600.0)

        async def scenario():
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    first = (await client.get(
                        server.base_url + "/index.html")).response
                    second = (await client.get(
                        server.base_url + "/index.html")).response
                    return first, second
        first, second = run(scenario())
        # each wall "second" = 1 simulated hour; HTML churns in hours, so
        # Dates must differ and the serving stayed coherent
        assert first.headers["Date"] != second.headers["Date"]

    def test_longest_corpus_map_fetched(self):
        """At t = 0, 11 corpus pages staple a map line over 8 KiB; the
        longest, site096-media's index, is 13.5 KB on the wire."""
        spec = next(site for site in make_corpus()
                    if site.origin == "https://site096-media.example")
        catalyst = CatalystServer(OriginSite(spec, materialize_fully=True))

        async def scenario():
            handler = as_async_handler(catalyst, clock=lambda: 0.0)
            async with AsyncHttpServer(handler) as server:
                async with AsyncHttpClient() as client:
                    return (await client.get(
                        server.base_url + "/index.html")).response

        response = run(scenario())
        assert response.status == 200
        value = response.headers["X-Etag-Config"]
        assert len("X-Etag-Config: " + value) > 13_000
        assert json.loads(value)


class TestServedBytes:
    """The bytes on the wire are ``serialize_response(handler(request))``."""

    MODE = "X-Test-Mode"
    AT = "X-Test-At"

    def _origins(self, specs) -> dict:
        origins = {}
        for spec in specs:
            site = OriginSite(spec, materialize_fully=True)
            origins[(spec.origin, "static")] = StaticServer(site)
            origins[(spec.origin, "catalyst")] = CatalystServer(
                site, CatalystConfig(emit_cache_status=True))
        return origins

    def _handler(self, origins):
        def handler(request):
            server = origins[(request.headers["X-Test-Origin"],
                              request.headers[self.MODE])]
            return server.handle(request, float(request.headers[self.AT]))
        return handler

    def _stream(self, specs) -> list[bytes]:
        """GETs for every URL of each site in both modes at three times;
        the later passes revalidate with the first pass's ETag, so
        unchanged resources answer 304."""
        origins = self._origins(specs)
        messages = []
        for at in (0.0, 3600.0, 30 * 3600.0):
            for spec in specs:
                for mode in ("static", "catalyst"):
                    site = origins[(spec.origin, mode)].site
                    for url in site.all_urls():
                        lines = [f"GET {url} HTTP/1.1", "Host: h",
                                 f"X-Test-Origin: {spec.origin}",
                                 f"{self.MODE}: {mode}", f"{self.AT}: {at!r}"]
                        etag = site.etag_of(url, 0.0)
                        if at > 0 and etag is not None:
                            lines.append(f'If-None-Match: "{etag}"')
                        messages.append(
                            ("\r\n".join(lines) + "\r\n\r\n").encode())
        return messages

    def test_wire_bytes_equal_serialized_handler_responses(self):
        specs = list(make_corpus(size=2, seed=2024))
        messages = self._stream(specs)
        expected = []
        reference = self._handler(self._origins(specs))
        for message in messages:
            parser = RequestParser()
            parser.feed(message)
            expected.append(serialize_response(
                reference(parser.next_request())))

        async def scenario():
            handler = self._handler(self._origins(specs))
            async with AsyncHttpServer(handler) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                got = []
                for message, want in zip(messages, expected):
                    writer.write(message)
                    await writer.drain()
                    got.append(await reader.readexactly(len(want)))
                writer.write_eof()
                rest = await reader.read()
                writer.close()
                await writer.wait_closed()
                return got, rest

        got, rest = run(scenario())
        statuses = {want.split(b" ", 2)[1] for want in expected}
        assert len(messages) > 200
        assert statuses == {b"200", b"304"}
        assert any(b"Cache-Status" in want for want in expected)
        assert any(b"X-Etag-Config" in want for want in expected)
        assert got == expected
        assert rest == b""
