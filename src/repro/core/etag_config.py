"""The ``X-Etag-Config`` map: model, header codec, size accounting.

This is the paper's central artifact: a map of resource URL -> current
ETag that the server staples onto the base HTML response.  The browser's
Service Worker uses it to decide, *without any network round trip*,
whether each cached resource is still current.

Encoding
--------
The header value is compact JSON — ``{"/a.css":"1a2b","/b.js":"9f8e"}`` —
with ETags stripped to their opaque tag (quotes and weakness are
reconstructible: stapled tags are compared with the weak comparison, so
weakness doesn't alter the outcome).  JSON keeps the header debuggable in
devtools, which the paper's open-source artifact also favoured.

Large pages produce large maps; :meth:`EtagConfig.header_size` feeds the
overhead benchmark, and ``max_entries`` guards against unbounded headers
(entries past the cap are dropped largest-URL-last, keeping the most
valuable — render-blocking — entries first when the caller pre-sorts).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Optional

from ..http.etag import ETag
from ..http.headers import Headers

__all__ = ["EtagConfig", "ETAG_CONFIG_HEADER", "ETAG_CONFIG_DIGEST_HEADER",
           "ETAG_CONFIG_SAME_HEADER", "DEFAULT_MAX_ENTRIES",
           "DEFAULT_MAX_HEADER_BYTES"]

logger = logging.getLogger(__name__)

ETAG_CONFIG_HEADER = "X-Etag-Config"

#: request header: digest of the map the client already holds
ETAG_CONFIG_DIGEST_HEADER = "X-Etag-Config-Digest"

#: response header replacing the map when the client's copy is current
ETAG_CONFIG_SAME_HEADER = "X-Etag-Config-Same"

#: Beyond ~8 KB of header the overhead starts to rival a small resource;
#: 512 entries of typical URL+tag length stay well under that.
DEFAULT_MAX_ENTRIES = 512

#: Hard byte cap on the emitted header value.  Entry counting alone
#: cannot bound the header (URLs can be arbitrarily long); past this cap
#: the map is omitted entirely — the header is advisory, so omission
#: degrades to standard revalidation instead of shipping an unbounded
#: header that middleboxes and servers may reject or truncate.
DEFAULT_MAX_HEADER_BYTES = 32 * 1024

#: distinct header values whose parse the client keeps, least recently
#: used first out: the 41 maps a ``revisit`` pass receives, with room to
#: spare.  A parsed map runs to kilobytes, and a cold ``fleet`` replay
#: parses hundreds it never sees again.
_PARSED_MAPS = 64


@dataclass
class EtagConfig:
    """An ordered URL -> ETag map.

    ``entries`` is treated as immutable after construction (nothing in
    the codebase mutates it); the encoded header value and digest are
    therefore memoized, which turns the per-request ``apply_to`` /
    ``digest`` calls on a cached map into dictionary reads instead of a
    JSON encode + SHA-256 per response.
    """

    entries: dict[str, ETag] = field(default_factory=dict)
    _header_value: Optional[str] = field(default=None, repr=False,
                                         compare=False)
    _digest: Optional[str] = field(default=None, repr=False, compare=False)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Mapping[str, ETag] | list[tuple[str, ETag]],
                   max_entries: int = DEFAULT_MAX_ENTRIES) -> "EtagConfig":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        entries: dict[str, ETag] = {}
        for url, etag in items:
            if len(entries) >= max_entries:
                break
            entries[url] = etag
        return cls(entries=entries)

    # -- lookups ----------------------------------------------------------------
    def etag_for(self, url: str) -> Optional[ETag]:
        return self.entries.get(url)

    def __contains__(self, url: str) -> bool:
        return url in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def merged_with(self, other: "EtagConfig") -> "EtagConfig":
        """Union of maps; ``other`` wins on conflicts (it is newer)."""
        merged = dict(self.entries)
        merged.update(other.entries)
        return EtagConfig(entries=merged)

    # -- codec ------------------------------------------------------------------
    def to_header_value(self) -> str:
        if self._header_value is None:
            payload = {url: etag.opaque
                       for url, etag in self.entries.items()}
            self._header_value = json.dumps(payload, separators=(",", ":"),
                                            sort_keys=False)
        return self._header_value

    @classmethod
    def from_header_value(cls, value: str) -> "EtagConfig":
        """Parse a header value; raises ValueError on malformed input."""
        try:
            payload = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {ETAG_CONFIG_HEADER}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{ETAG_CONFIG_HEADER} must be a JSON object")
        entries: dict[str, ETag] = {}
        for url, opaque in payload.items():
            if not isinstance(url, str) or not isinstance(opaque, str):
                raise ValueError(
                    f"{ETAG_CONFIG_HEADER} entries must be string->string")
            entries[url] = ETag(opaque=opaque)
        return cls(entries=entries)

    @staticmethod
    def from_header_value_lenient(
            value: str) -> tuple[Optional["EtagConfig"], int]:
        """Salvage whatever valid entries a damaged header still carries.

        Returns ``(config, dropped)``: the entries that survived (or
        ``None`` when nothing parses at all — truncated JSON, non-object
        payload) and how many entries were discarded for having non-string
        keys or values.  A partially-applicable map is still useful: the
        surviving URLs keep their zero-RTT path while the rest fall back
        to conditional revalidation.

        Memoized per header value (:func:`_parse_lenient`): every visit
        to an unchanged page receives the same map, and an
        ``EtagConfig`` is never mutated, so callers share one.
        """
        return _parse_lenient(value)

    def apply_to(self, headers: Headers,
                 max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES) -> bool:
        """Set the header on a response (removed when the map is empty).

        Returns True when the header was emitted.  Maps whose encoded
        value exceeds ``max_header_bytes`` are omitted (with a logged
        warning) instead of shipped: clients that never see the header
        simply revalidate conditionally, whereas an oversized header can
        break the whole response at proxies and servers with header-size
        limits.
        """
        if not self.entries:
            headers.remove(ETAG_CONFIG_HEADER)
            return False
        value = self.to_header_value()
        if max_header_bytes is not None \
                and len(value.encode()) > max_header_bytes:
            logger.warning(
                "%s omitted: encoded map is %d bytes (cap %d, %d entries)",
                ETAG_CONFIG_HEADER, len(value.encode()), max_header_bytes,
                len(self.entries))
            headers.remove(ETAG_CONFIG_HEADER)
            return False
        headers.set(ETAG_CONFIG_HEADER, value)
        return True

    @classmethod
    def from_headers(cls, headers: Headers) -> Optional["EtagConfig"]:
        """Extract and parse the header; None when absent or unsalvageable.

        Damaged maps degrade rather than fail: entries that still parse
        are kept (see :meth:`from_header_value_lenient`), and a header
        with nothing salvageable is treated as absent — the client must
        fall back to status-quo behaviour, never break the page load.
        """
        raw = headers.get(ETAG_CONFIG_HEADER)
        if raw is None:
            return None
        config, dropped = cls.from_header_value_lenient(raw)
        if dropped:
            logger.warning(
                "%s partially damaged: %d entr%s dropped, %d kept",
                ETAG_CONFIG_HEADER, dropped, "y" if dropped == 1 else "ies",
                0 if config is None else len(config))
        return config

    def digest(self) -> str:
        """Short content digest of the map (for revisit deduplication).

        A revisit whose page content is unchanged would receive a
        byte-identical map; the client advertises this digest and the
        server replies ``X-Etag-Config-Same`` (a few bytes) instead of
        re-sending kilobytes of JSON.
        """
        import hashlib
        if self._digest is None:
            self._digest = hashlib.sha256(
                self.to_header_value().encode()).hexdigest()[:16]
        return self._digest

    # -- accounting ----------------------------------------------------------
    def header_size(self) -> int:
        """Bytes this map adds to the response head."""
        if not self.entries:
            return 0
        return (len(ETAG_CONFIG_HEADER) + 2
                + len(self.to_header_value().encode()) + 2)


@lru_cache(maxsize=_PARSED_MAPS)
def _parse_lenient(value: str) -> tuple[Optional[EtagConfig], int]:
    """:meth:`EtagConfig.from_header_value_lenient`, computed."""
    try:
        payload = json.loads(value)
    except json.JSONDecodeError:
        return None, 0
    if not isinstance(payload, dict):
        return None, 0
    entries: dict[str, ETag] = {}
    dropped = 0
    for url, opaque in payload.items():
        if isinstance(url, str) and isinstance(opaque, str) and opaque:
            entries[url] = ETag(opaque=opaque)
        else:
            dropped += 1
    if not entries:
        return None, dropped
    return EtagConfig(entries=entries), dropped
