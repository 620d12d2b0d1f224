"""Multi-process SO_REUSEPORT fleet: start, serve, merge stats, drain.

Worker processes are real (spawn), so these tests are seconds-scale;
they skip wholesale on platforms without ``SO_REUSEPORT``.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.http.aclient import AsyncHttpClient
from repro.http.fleet import (HAVE_REUSEPORT, FleetConfig, ServerFleet,
                              build_app, reuseport_socket)
from repro.http.messages import Request, Response

needs_reuseport = pytest.mark.skipif(
    not HAVE_REUSEPORT, reason="platform lacks SO_REUSEPORT")


def run(coro):
    return asyncio.run(coro)


class TestReuseportSocket:
    @needs_reuseport
    def test_two_sockets_share_one_port(self):
        first = reuseport_socket("127.0.0.1", 0)
        port = first.getsockname()[1]
        second = reuseport_socket("127.0.0.1", port)  # no EADDRINUSE
        assert second.getsockname()[1] == port
        first.close()
        second.close()

    def test_accepted_connections_say_tcp(self):
        """asyncio sets TCP_NODELAY only on sockets whose protocol is
        IPPROTO_TCP; an accepted socket inherits the listener's, and a
        shard left with Nagle on answered every request about 40 ms
        late."""
        listener = reuseport_socket("127.0.0.1", 0)
        listener.listen()
        client = socket.create_connection(listener.getsockname())
        accepted, _ = listener.accept()
        try:
            assert accepted.proto == socket.IPPROTO_TCP
        finally:
            for sock in (accepted, client, listener):
                sock.close()

    def test_sockets_bound_but_not_listening(self):
        sock = reuseport_socket("127.0.0.1", 0)
        try:
            with pytest.raises(OSError):
                socket.create_connection(sock.getsockname(), timeout=0.5)
        finally:
            sock.close()


class TestBuildApp:
    def test_static_app_deterministic_for_seed(self):
        handler_a, _ = build_app(FleetConfig(app="static", seed=5))
        handler_b, _ = build_app(FleetConfig(app="static", seed=5))
        handler_c, _ = build_app(FleetConfig(app="static", seed=6))
        a = handler_a(None).body
        assert a == handler_b(None).body
        assert a != handler_c(None).body
        assert len(a) == 2048

    def test_catalyst_app_serves_site(self):
        handler, stats_source = build_app(
            FleetConfig(app="catalyst", seed=1, median_resources=8))
        from repro.http.messages import Request
        response = handler(Request(url="/index.html"))
        assert isinstance(response, Response)
        assert response.status == 200
        assert callable(stats_source)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_app(FleetConfig(app="nope"))


async def _get(url: str):
    async with AsyncHttpClient() as client:
        return await client.get(url)


class TestServeCommand:
    def test_one_shard_serves_what_a_fleet_shard_serves(self):
        """``repro serve``'s default one-worker fleet answers the page
        a shard of the same seed serves: the shard count does not
        change the content."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # --time-scale 0 holds the site at t = 0 on both sides
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--quiet", "serve",
             "--port", "0", "--seed", "7", "--time-scale", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = proc.stdout.readline()
            base_url = banner.split()[3]  # "Catalyst origin on <url> ..."
            served = run(_get(base_url + "/index.html")).response
        finally:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            proc.stdout.close()
        assert returncode == 0
        handler, _ = build_app(FleetConfig(app="catalyst", seed=7,
                                           time_scale=0.0))
        expected = handler(Request(url="/index.html"))
        assert served.status == expected.status == 200
        assert served.body == expected.body


    @needs_reuseport
    def test_two_shards_serve_the_same_page(self):
        """``repro serve --shards 2`` answers the same page as one
        shard: the second worker changes where it is served, not
        what."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--quiet", "serve",
             "--port", "0", "--seed", "7", "--time-scale", "0",
             "--shards", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = proc.stdout.readline()
            base_url = banner.split()[3]
            served = [run(_get(base_url + "/index.html")).response
                      for _ in range(4)]
        finally:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            proc.stdout.close()
        assert returncode == 0
        handler, _ = build_app(FleetConfig(app="catalyst", seed=7,
                                           time_scale=0.0))
        expected = handler(Request(url="/index.html"))
        for response in served:
            assert response.status == 200
            assert response.body == expected.body


@needs_reuseport
class TestServerFleet:
    def test_two_shards_serve_and_drain(self):
        config = FleetConfig(shards=2, seed=3, app="static",
                             max_inflight=16)
        fleet = ServerFleet(config).start()
        try:
            async def drive():
                async with AsyncHttpClient() as client:
                    bodies = set()
                    for _ in range(12):
                        result = await client.get(fleet.base_url + "/")
                        assert result.response.status == 200
                        bodies.add(result.response.body)
                    return bodies

            bodies = run(drive())
            assert len(bodies) == 1  # same seed -> identical shards
            stats = fleet.stats()
            assert stats["shards"] == 2
            assert stats["totals"]["requests_served"] == 12
            assert stats["totals"]["shed_503"] == 0
            # the merged registry folded per-worker dumps: the request
            # counter matches the summed per-worker counters
            assert stats["metrics"]["http.requests"] == 12
            per_worker = [w["requests_served"] for w in stats["workers"]]
            assert sum(per_worker) == 12
        finally:
            reports = fleet.stop(drain_s=2.0)
        assert len(reports) == 2
        assert all(r["hard_cancelled"] == 0 for r in reports)

    def test_fleet_context_manager(self):
        with ServerFleet(FleetConfig(shards=2, seed=1,
                                     app="static")) as fleet:
            async def one():
                async with AsyncHttpClient() as client:
                    return (await client.get(fleet.base_url + "/")).response
            assert run(one()).status == 200

    def test_multi_shard_without_reuseport_raises(self, monkeypatch):
        monkeypatch.setattr("repro.http.fleet.HAVE_REUSEPORT", False)
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            ServerFleet(FleetConfig(shards=2)).start()
