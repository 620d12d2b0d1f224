"""Unit tests for the browser network client."""

import pytest

from repro.browser.fetcher import NetworkClient
from repro.http.messages import Request, Response
from repro.netsim.link import Link, NetworkConditions
from repro.netsim.sim import Simulator
from repro.netsim.tcp import ConnectionPolicy


def make_client(sim, handler, conditions=None, **kwargs):
    link = Link(sim, conditions or NetworkConditions.of(60, 40))
    return NetworkClient(sim=sim, link=link, handler=handler, **kwargs)


def simple_handler(request: Request, at_time: float) -> Response:
    return Response(body=b"k" * 1000)


class TestExchange:
    def test_returns_handler_response(self):
        sim = Simulator()
        client = make_client(sim, simple_handler)

        def proc():
            response, _, _ = yield from client.exchange(Request(url="/a"))
            return response
        response = sim.run_process(proc())
        assert response.body == b"k" * 1000

    def test_timing_includes_setup_rtt_and_transfer(self):
        sim = Simulator()
        client = make_client(sim, simple_handler, server_think_s=0.0)

        def proc():
            yield from client.exchange(Request(url="/a"))
            return sim.now
        elapsed = sim.run_process(proc())
        # setup 2 RTT (80ms) + request RTT (40ms) + ~1.4 kB transfer
        assert elapsed > 0.120
        assert elapsed < 0.140

    def test_connection_reused_on_second_request(self):
        sim = Simulator()
        client = make_client(sim, simple_handler, server_think_s=0.0)

        def proc():
            yield from client.exchange(Request(url="/a"))
            first_done = sim.now
            yield from client.exchange(Request(url="/b"))
            return first_done, sim.now
        first, second = sim.run_process(proc())
        assert client.connections_opened == 1
        assert (second - first) < first  # no handshakes the second time

    def test_reports_whether_its_connection_was_new(self):
        sim = Simulator()
        client = make_client(sim, simple_handler,
                             connections_per_origin=2)
        flags = []

        def proc(url):
            _, new_connection, _ = yield from client.exchange(
                Request(url=url))
            flags.append(new_connection)

        for i in range(6):
            sim.process(proc(f"/{i}"))
        sim.run()
        # the first two open the pool's two connections, the rest reuse
        assert flags == [True, True, False, False, False, False]
        assert sum(flags) == client.connections_opened == 2

    def test_connection_cap_queues_excess(self):
        sim = Simulator()
        client = make_client(sim, simple_handler,
                             connections_per_origin=2)
        done = []

        def proc(url):
            yield from client.exchange(Request(url=url))
            done.append(sim.now)

        for i in range(6):
            sim.process(proc(f"/{i}"))
        sim.run()
        assert client.connections_opened <= 2
        assert len(done) == 6
        # issued together, served two at a time: three waves, each at
        # least a request round trip (40 ms) after the one before
        assert done[0] == done[1] and done[2] == done[3] \
            and done[4] == done[5]
        assert done[2] - done[1] > 0.040 and done[4] - done[3] > 0.040

    def test_exchange_records_accounting(self):
        sim = Simulator()
        client = make_client(sim, simple_handler)
        response, new_connection, retries = sim.run_process(
            client.exchange(Request(url="/a")))
        assert response.status == 200
        assert new_connection and client.connections_opened == 1
        assert retries == 0
        # the downlink billed the response's headers (at least the
        # policy's floor) and its body
        header_bytes = max(client.policy.response_header_bytes,
                           response.headers.wire_size())
        assert client.link.bytes_down == header_bytes + 1000

    def test_handler_sees_arrival_time(self):
        sim = Simulator()
        seen = []

        def handler(request, at_time):
            seen.append(at_time)
            return Response()
        client = make_client(sim, handler, server_think_s=0.010)
        sim.run_process(client.exchange(Request(url="/a")))
        # arrival: 2 RTT setup + one-way 20 ms + think 10 ms
        assert seen[0] == pytest.approx(0.080 + 0.020 + 0.010)

    def test_declared_size_drives_transfer_time(self):
        sim = Simulator()

        def big_handler(request, at_time):
            return Response(body=b"tiny", declared_size=6_000_000)
        client = make_client(sim, big_handler, server_think_s=0.0)

        def proc():
            yield from client.exchange(Request(url="/big"))
            return sim.now
        elapsed = sim.run_process(proc())
        assert elapsed > 0.8  # 6 MB over 60 Mbps = 0.8 s

    def test_warm_up_preestablishes_idle_connections(self):
        sim = Simulator()
        client = make_client(sim, simple_handler)
        sim.run_process(client.warm_up(3))
        assert client.connections_opened == 3
        # the next exchange reuses a warmed connection: no handshake RTTs
        sim_start = sim.now
        sim.run_process(client.exchange(Request(url="/a")))
        assert client.connections_opened == 3
        assert (sim.now - sim_start) < 0.080  # < the 2-RTT handshake

    def test_warm_up_noop_under_h2(self):
        sim = Simulator()
        client = make_client(sim, simple_handler, multiplexed=True)
        sim.run_process(client.warm_up(3))
        assert client.connections_opened == 0

    def test_preconnect_speeds_late_fetch_chains(self):
        """BrowserConfig.preconnect warms the pool during the HTML RTT."""
        from repro.browser.engine import BrowserConfig
        from repro.core.modes import CachingMode, build_mode
        from repro.core.catalyst import run_visit_sequence
        from repro.experiments.figure1 import build_figure1_site
        from repro.netsim.link import NetworkConditions
        site = build_figure1_site()
        conditions = NetworkConditions.of(60, 100)
        plts = {}
        for preconnect in (0, 3):
            setup = build_mode(CachingMode.STANDARD, site,
                               BrowserConfig(preconnect=preconnect))
            outcomes = run_visit_sequence(setup, conditions, [0.0])
            plts[preconnect] = outcomes[0].result.plt_s
        assert plts[3] <= plts[0]

    def test_slow_start_policy_applies(self):
        def run(slow_start):
            sim = Simulator()
            client = make_client(
                sim, simple_handler,
                policy=ConnectionPolicy(slow_start=slow_start))

            def big_handler(request, at_time):
                return Response(body=b"", declared_size=60 * 1460)
            client.handler = big_handler

            def proc():
                yield from client.exchange(Request(url="/big"))
                return sim.now
            return sim.run_process(proc())
        assert run(True) > run(False)
