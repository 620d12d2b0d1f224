"""Entity tags (RFC 9110 §8.8.3) and conditional-request evaluation.

ETags are the currency of this whole reproduction: the origin generates
them, ``If-None-Match`` carries them back, and CacheCatalyst staples fresh
ones onto the base HTML so the client never has to ask.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

__all__ = ["ETag", "parse_etag", "parse_etag_list", "etag_for_content"]


@dataclass(frozen=True, order=True)
class ETag:
    """A parsed entity tag.

    ``opaque`` is the tag content without quotes; ``weak`` marks ``W/``
    prefixed tags.
    """

    opaque: str
    weak: bool = False

    def __post_init__(self) -> None:
        if '"' in self.opaque or "\\" in self.opaque:
            raise ValueError(f"invalid etag characters in {self.opaque!r}")

    def __str__(self) -> str:
        quoted = f'"{self.opaque}"'
        return f"W/{quoted}" if self.weak else quoted

    # -- comparison functions (RFC 9110 §8.8.3.2) ---------------------------
    def strong_compare(self, other: "ETag") -> bool:
        """True when both are strong and their opaque tags match."""
        return (not self.weak and not other.weak
                and self.opaque == other.opaque)

    def weak_compare(self, other: "ETag") -> bool:
        """True when opaque tags match, ignoring weakness."""
        return self.opaque == other.opaque


@lru_cache(maxsize=1024)
def parse_etag(value: str) -> ETag:
    """Parse one entity-tag production.

    Memoized by value (``ETag`` is frozen, so callers share it); a
    malformed tag raises every time.

    >>> parse_etag('W/"abc"')
    ETag(opaque='abc', weak=True)
    >>> str(parse_etag('"xyz"'))
    '"xyz"'
    """
    text = value.strip()
    weak = False
    if text.startswith(("W/", "w/")):
        weak = True
        text = text[2:]
    if len(text) < 2 or not (text.startswith('"') and text.endswith('"')):
        raise ValueError(f"malformed entity tag: {value!r}")
    return ETag(opaque=text[1:-1], weak=weak)


def parse_etag_list(value: str) -> Optional[list[ETag]]:
    """Parse an ``If-None-Match`` value.

    Returns ``None`` for the wildcard ``*`` (matches any representation),
    otherwise the list of tags.  Malformed members raise ValueError.

    >>> parse_etag_list('"a", W/"b"')
    [ETag(opaque='a', weak=False), ETag(opaque='b', weak=True)]
    >>> parse_etag_list("*") is None
    True
    """
    text = value.strip()
    if text == "*":
        return None
    tags = []
    for part in _split_list(text):
        tags.append(parse_etag(part))
    if not tags:
        raise ValueError("empty If-None-Match list")
    return tags


def _split_list(text: str) -> Iterable[str]:
    """Split a comma-separated etag list, respecting quoted strings."""
    if "," not in text:  # one member, the usual If-None-Match
        return [text.strip()] if text.strip() else []
    parts = []
    depth_quote = False
    current = []
    for ch in text:
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            if "".join(current).strip():
                parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if "".join(current).strip():
        parts.append("".join(current).strip())
    return parts


def etag_for_content(body: bytes, weak: bool = False) -> ETag:
    """Derive a deterministic strong ETag from response bytes.

    Uses a truncated SHA-256, the common origin-server scheme (nginx and
    Caddy derive theirs from mtime+size; a content hash is stabler for a
    simulated corpus whose "files" have no mtimes).
    """
    digest = hashlib.sha256(body).hexdigest()[:16]
    return ETag(opaque=digest, weak=weak)


def if_none_match_matches(header_value: str, current: ETag) -> bool:
    """Evaluate ``If-None-Match`` against the current representation.

    Per RFC 9110 the *weak* comparison is used for If-None-Match.  Returns
    True when the condition matches, i.e. the server should answer
    ``304 Not Modified`` to a GET.
    """
    tags = parse_etag_list(header_value)
    if tags is None:  # wildcard
        return True
    return any(tag.weak_compare(current) for tag in tags)


__all__.append("if_none_match_matches")
