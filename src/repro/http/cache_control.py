"""Cache-Control directive parsing (RFC 9111 §5.2).

Parses the directives this reproduction's caching logic consumes:
``no-store``, ``no-cache``, ``max-age``, ``s-maxage``, ``must-revalidate``,
``private``, ``public``, ``immutable``, ``stale-while-revalidate``.
Unknown directives are retained verbatim (they must be ignored, not
rejected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

__all__ = ["CacheControl", "NO_CACHE_CONTROL", "parse_cache_control"]


@dataclass(frozen=True)
class CacheControl:
    """A parsed Cache-Control header value."""

    no_store: bool = False
    no_cache: bool = False
    max_age: Optional[int] = None
    s_maxage: Optional[int] = None
    must_revalidate: bool = False
    private: bool = False
    public: bool = False
    immutable: bool = False
    stale_while_revalidate: Optional[int] = None
    #: directives we don't interpret, name -> value (None for valueless)
    extensions: tuple[tuple[str, Optional[str]], ...] = field(
        default_factory=tuple)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.no_store:
            parts.append("no-store")
        if self.no_cache:
            parts.append("no-cache")
        if self.max_age is not None:
            parts.append(f"max-age={self.max_age}")
        if self.s_maxage is not None:
            parts.append(f"s-maxage={self.s_maxage}")
        if self.must_revalidate:
            parts.append("must-revalidate")
        if self.private:
            parts.append("private")
        if self.public:
            parts.append("public")
        if self.immutable:
            parts.append("immutable")
        if self.stale_while_revalidate is not None:
            parts.append(
                f"stale-while-revalidate={self.stale_while_revalidate}")
        for name, value in self.extensions:
            parts.append(name if value is None else f"{name}={value}")
        return ", ".join(parts)

    @property
    def is_cacheable(self) -> bool:
        """Whether a shared-nothing private cache may store the response."""
        return not self.no_store


#: what a message without a Cache-Control field carries: one shared,
#: frozen instance rather than a new one per response
NO_CACHE_CONTROL = CacheControl()


def _parse_delta_seconds(raw: str, directive: str) -> int:
    """Parse a delta-seconds argument; negative/garbage handled leniently.

    RFC 9111 says caches should treat unparsable delta-seconds as either 0
    or infinity depending on the directive; we follow the conservative
    reading (0) so a malformed max-age never extends freshness.
    """
    raw = raw.strip().strip('"')
    try:
        value = int(raw)
    except ValueError:
        return 0
    if value < 0:
        return 0
    # Cap per RFC 9111 §1.2.2 recommendation (2**31 seconds).
    return min(value, 2 ** 31)


@lru_cache(maxsize=128)
def parse_cache_control(value: str) -> CacheControl:
    """Parse a Cache-Control field value.

    Memoized by value: a site sends a handful of distinct strings, and
    the result is frozen, so every caller can share it.

    >>> cc = parse_cache_control("no-cache, max-age=300")
    >>> cc.no_cache, cc.max_age
    (True, 300)
    >>> parse_cache_control("No-Store").no_store
    True
    """
    fields: dict[str, object] = {}
    extensions: list[tuple[str, Optional[str]]] = []
    for part in _split_directives(value):
        if "=" in part:
            name, _, arg = part.partition("=")
        else:
            name, arg = part, None
        name = name.strip().lower()
        if not name:
            continue
        if name == "no-store":
            fields["no_store"] = True
        elif name == "no-cache":
            fields["no_cache"] = True
        elif name == "max-age":
            fields["max_age"] = _parse_delta_seconds(arg or "", name)
        elif name == "s-maxage":
            fields["s_maxage"] = _parse_delta_seconds(arg or "", name)
        elif name == "must-revalidate":
            fields["must_revalidate"] = True
        elif name == "private":
            fields["private"] = True
        elif name == "public":
            fields["public"] = True
        elif name == "immutable":
            fields["immutable"] = True
        elif name == "stale-while-revalidate":
            fields["stale_while_revalidate"] = _parse_delta_seconds(
                arg or "", name)
        else:
            extensions.append(
                (name, arg.strip() if arg is not None else None))
    return CacheControl(extensions=tuple(extensions), **fields)


def _split_directives(value: str) -> list[str]:
    """Split on commas outside quoted strings."""
    parts = []
    current: list[str] = []
    in_quotes = False
    for ch in value:
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
        elif ch == "," and not in_quotes:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]
