"""Golden digests: a speed-only change must not move one simulated bit.

Two fixed workloads are reduced to a SHA-256 each:

- **DES timelines.**  A small grid (3 corpus sites x standard/catalyst x
  two network conditions) loads each site at 0 s, 1 h and 25 h on one
  shared client, as ``run_visit_sequence`` does for Figure 3.  Every
  fetch event contributes its URL, source, ``float.hex`` start and end,
  status, downlink bytes and served ETag; every visit its ``onload_s``.
- **Served bytes.**  A fixed request list (plain GETs, If-None-Match and
  If-Modified-Since revalidations, stale validators, two client ids) is
  sent to ``StaticServer`` and ``CatalystServer(emit_cache_status=True)``
  in both tiers (DES stand-ins and ``materialize_fully``), and every
  serialized response, 304s included, is hashed with its declared size.

The cells run one after another in one process, so anything an origin
shares with the next origin built over the same spec is exercised too.
The digests must not depend on ``PYTHONHASHSEED`` (CI runs this module
under two values).  A deliberate model change updates the digest below
and says so in CHANGES.md; on a mismatch the assertion prints the new
one.
"""

from __future__ import annotations

import hashlib

from repro.core.catalyst import run_visit_sequence
from repro.core.modes import CachingMode, build_mode
from repro.http.headers import Headers
from repro.http.messages import Request
from repro.http.wire import serialize_response
from repro.netsim.link import NetworkConditions
from repro.server.catalyst import CatalystConfig, CatalystServer
from repro.server.site import OriginSite
from repro.server.static import StaticServer
from repro.workload.corpus import make_corpus

DES_DIGEST = (
    "a5b5aab40464c46f9f8aa3b85fcba42052521d3690163a78f7c444a4391ce774")
SERVED_DIGEST = (
    "84ef05413a9a9cf8b9aa5b9f97f35eba18486688337460b4f7119044667fe2f1")

VISIT_TIMES_S = (0.0, 3600.0, 25 * 3600.0)
CONDITIONS = (NetworkConditions.of(60, 40), NetworkConditions.of(8, 100))
MODES = (CachingMode.STANDARD, CachingMode.CATALYST)
CLIENTS = ("client-a", "client-b")


def _sites():
    return list(make_corpus(size=3, seed=2024))


def des_digest() -> str:
    digest = hashlib.sha256()
    for site in _sites():
        for mode in MODES:
            for conditions in CONDITIONS:
                setup = build_mode(mode, site)
                for outcome in run_visit_sequence(setup, conditions,
                                                  VISIT_TIMES_S):
                    result = outcome.result
                    digest.update(f"visit|{site.origin}|{mode.value}|"
                                  f"{conditions.describe()}|"
                                  f"{outcome.at_s.hex()}|"
                                  f"{result.onload_s.hex()}\n".encode())
                    for event in result.events:
                        digest.update(
                            f"{event.url}|{event.source.value}|"
                            f"{event.start_s.hex()}|{event.end_s.hex()}|"
                            f"{event.status}|{event.bytes_down}|"
                            f"{event.served_etag}\n".encode())
    return digest.hexdigest()


def _exchanges(server, site: OriginSite, digest) -> None:
    """Drive one fresh server through the fixed request list."""
    urls = site.all_urls()
    first: dict[str, tuple] = {}
    for at_time in VISIT_TIMES_S:
        for client in CLIENTS:
            for url in urls:
                plain = server.handle(
                    Request("GET", url,
                            headers=Headers({"X-Client-Id": client})),
                    at_time)
                responses = [plain]
                etag = plain.headers.get("ETag")
                last_modified = plain.headers.get("Last-Modified")
                first.setdefault(url, (etag, last_modified))
                old_etag, old_modified = first[url]
                for name, value in (("If-None-Match", etag),
                                    ("If-None-Match", old_etag),
                                    ("If-Modified-Since", old_modified)):
                    if value is None:
                        continue
                    responses.append(server.handle(
                        Request("GET", url, headers=Headers(
                            {"X-Client-Id": client, name: value})),
                        at_time))
                for response in responses:
                    digest.update(f"{url}|{at_time.hex()}|"
                                  f"{response.declared_size}\n".encode())
                    digest.update(serialize_response(response))


def served_digest() -> str:
    digest = hashlib.sha256()
    for spec in _sites()[:2]:
        for materialize_fully in (False, True):
            site = OriginSite(spec, materialize_fully=materialize_fully)
            _exchanges(StaticServer(site), site, digest)
            site = OriginSite(spec, materialize_fully=materialize_fully)
            _exchanges(CatalystServer(
                site, CatalystConfig(emit_cache_status=True)), site, digest)
    return digest.hexdigest()


def test_des_timelines_match_golden_digest():
    got = des_digest()
    assert got == DES_DIGEST, f"DES timelines changed; new digest {got}"


def test_served_bytes_match_golden_digest():
    got = served_digest()
    assert got == SERVED_DIGEST, f"served bytes changed; new digest {got}"
