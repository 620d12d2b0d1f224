"""Case-insensitive HTTP header multimap.

Semantics follow RFC 9110: field names compare case-insensitively, a field
may occur multiple times, and for list-valued fields the occurrences join
with commas.  Insertion order is preserved (it matters on the wire and for
deterministic tests).
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Mapping
from functools import lru_cache
from typing import Optional, Union

from .cache_control import NO_CACHE_CONTROL, CacheControl, parse_cache_control

__all__ = ["Headers"]

_RawItems = Union["Headers", Mapping[str, str],
                  Iterable[tuple[str, str]], None]


@lru_cache(maxsize=512)
def _folded_name(name: str) -> str:
    """The lowercase lookup key of a valid field name.

    Memoized: a program sends the same few dozen names over and over, so
    each is validated once.  An invalid name raises every time (the cache
    never stores an exception).
    """
    if not name or any(c in name for c in " \t\r\n:"):
        raise ValueError(f"invalid header field name: {name!r}")
    return name.lower()


def _checked_value(value: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"header value must be str, got {type(value)}")
    if "\r" in value or "\n" in value:
        raise ValueError("header value contains CR/LF (smuggling risk)")
    return value.strip()


def _field_size(name: str, value: str) -> int:
    """Bytes of one ``Name: value\\r\\n`` line, as :meth:`Headers.wire_size`
    counts them."""
    return len(name) + 4 + (len(value) if value.isascii()
                            else len(value.encode("utf-8", "replace")))


@lru_cache(maxsize=64)
def _selection(names: tuple[str, ...]) -> dict[str, int]:
    """Lowercase name -> its rank in ``names``."""
    return {_folded_name(name): rank for rank, name in enumerate(names)}


class Headers:
    """An ordered, case-insensitive multimap of header fields.

    ``_items`` keeps every field as sent (order, duplicates, original
    case); ``_keys`` holds the lowercase name of each, position for
    position, so lookups run as C-level ``in`` / ``list.index`` scans.
    ``wire_size`` and the parsed ``Cache-Control`` are cached until the
    next mutation (a copy starts with them).  A copy is
    copy-on-write: it shares the two lists, both sides are marked
    ``_shared``, and whichever side first mutates them in place takes
    its own lists first (most copies are read and never changed).

    >>> h = Headers({"Content-Type": "text/html"})
    >>> h["content-type"]
    'text/html'
    >>> h.add("Set-Cookie", "a=1"); h.add("Set-Cookie", "b=2")
    >>> h.get_all("set-cookie")
    ['a=1', 'b=2']
    """

    __slots__ = ("_items", "_keys", "_wire_size", "_cache_control",
                 "_shared")

    def __init__(self, items: _RawItems = None):
        if isinstance(items, Headers):
            # a copy: the fields were validated when ``items`` was built,
            # and the lists are shared until either side mutates them
            self._items: list[tuple[str, str]] = items._items
            self._keys: list[str] = items._keys
            self._wire_size: Optional[int] = items._wire_size
            self._cache_control: Optional[CacheControl] = \
                items._cache_control
            self._shared = items._shared = True
            return
        self._items = []
        self._keys = []
        self._wire_size = None
        self._cache_control = None
        self._shared = False
        if items is None:
            return
        # A list or tuple of pairs is the common argument; test for it
        # before the (much slower) ``Mapping`` ABC check.
        if not isinstance(items, (list, tuple)) \
                and isinstance(items, Mapping):
            items = items.items()
        for name, value in items:
            self.add(name, value)

    # -- mutation ----------------------------------------------------------
    def _own(self) -> None:
        """Take private copies of field lists a copy still shares, before
        changing them in place."""
        self._items = list(self._items)
        self._keys = list(self._keys)
        self._shared = False

    def add(self, name: str, value: str) -> None:
        """Append an occurrence of ``name`` (keeps existing ones)."""
        key = _folded_name(name)
        value = _checked_value(value)
        if self._shared:
            self._own()
        self._items.append((name, value))
        self._keys.append(key)
        self._wire_size = None
        self._cache_control = None

    def set(self, name: str, value: str) -> None:
        """Replace all occurrences of ``name`` with a single value."""
        self.remove(name)
        self.add(name, value)

    def add_validated(self, name: str, value: str) -> None:
        """Append ``name: value`` where ``value`` was read from another
        ``Headers``: it is already a valid, stripped field value, so it
        is taken as it is (the name goes through the memo)."""
        key = _folded_name(name)
        if self._shared:
            self._own()
        self._items.append((name, value))
        self._keys.append(key)
        self._wire_size = None
        self._cache_control = None

    def setdefault(self, name: str, value: str) -> str:
        existing = self.get(name)
        if existing is not None:
            return existing
        self.add(name, value)
        return value

    def replace(self, name: str, value: str) -> None:
        """Set ``name`` to ``value`` *keeping its position* in field order.

        ``set`` removes then appends, which moves the field to the end;
        on the wire (and for byte-identity checks) order matters.  The
        first occurrence is rewritten in place (under its own spelling),
        later duplicates are dropped; an absent field is appended like
        ``set``.
        """
        key = name.lower()
        keys = self._keys
        if key not in keys:
            self.add(name, value)
            return
        value = _checked_value(value)
        first = keys.index(key)
        self._drop(key, start=first + 1)  # new, unshared lists
        self._items[first] = (self._items[first][0], value)

    def remove(self, name: str) -> None:
        """Drop every occurrence of ``name`` (no error if absent)."""
        key = name.lower()
        if key in self._keys:
            self._drop(key)

    def _drop(self, key: str, start: int = 0) -> None:
        """Remove the fields named ``key`` at or after position ``start``
        (into new lists, which this object owns)."""
        items, keys = self._items, self._keys
        kept = [pair for pair in zip(items[start:], keys[start:])
                if pair[1] != key]
        self._items = items[:start] + [item for item, _ in kept]
        self._keys = keys[:start] + [k for _, k in kept]
        self._wire_size = None
        self._cache_control = None
        self._shared = False

    def extend(self, items: _RawItems) -> None:
        """Append every field of ``items``.

        A :class:`Headers` argument's fields were validated when it was
        built, so they are appended as they are, without a second pass.
        """
        other = items if isinstance(items, Headers) else Headers(items)
        if self._shared:
            self._own()
        self._items.extend(other._items)
        self._keys.extend(other._keys)
        self._wire_size = None
        self._cache_control = None

    def update_from(self, other: "Headers",
                    skip: Container[str] = ()) -> None:
        """Fold ``other``'s fields in, as a cache freshens a stored
        response from a 304 (RFC 9111 §4.3.4).

        Each field ``other`` names, unless its lowercase name is in
        ``skip``, replaces every occurrence here: the others keep their
        order, and ``other``'s occurrences are appended in the order it
        first names each field, all under that first spelling.  The
        field list is rebuilt once, however many fields ``other`` names.
        """
        groups: dict[str, list[tuple[str, str]]] = {}
        for (name, value), key in zip(other._items, other._keys):
            if key in skip:
                continue
            group = groups.get(key)
            if group is None:
                groups[key] = [(name, value)]
            else:
                group.append((group[0][0], value))
        if not groups:
            return
        kept = [pair for pair in zip(self._items, self._keys)
                if pair[1] not in groups]
        items = [item for item, _ in kept]
        keys = [key for _, key in kept]
        for key, group in groups.items():
            items.extend(group)
            keys.extend([key] * len(group))
        self._items = items
        self._keys = keys
        self._wire_size = None
        self._cache_control = None
        self._shared = False

    # -- access ------------------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First occurrence of ``name``, or ``default``."""
        key = name.lower()
        keys = self._keys
        if key in keys:
            return self._items[keys.index(key)][1]
        return default

    def get_all(self, name: str) -> list[str]:
        """Every occurrence of ``name``, in insertion order."""
        key = name.lower()
        if key not in self._keys:
            return []
        return [item[1] for item, k in zip(self._items, self._keys)
                if k == key]

    def get_joined(self, name: str) -> Optional[str]:
        """All occurrences joined with ``", "`` (RFC 9110 list semantics)."""
        key = name.lower()
        keys = self._keys
        if key not in keys:
            return None
        if keys.count(key) == 1:
            return self._items[keys.index(key)][1]
        return ", ".join(self.get_all(name))

    def cache_control(self) -> CacheControl:
        """The parsed ``Cache-Control`` directives (``NO_CACHE_CONTROL``
        without the field), read once until the fields next change: a
        stored response is asked for them on every lookup and every
        store, and its copies share them."""
        directives = self._cache_control
        if directives is None:
            raw = self.get_joined("Cache-Control")
            directives = self._cache_control = (
                NO_CACHE_CONTROL if raw is None
                else parse_cache_control(raw))
        return directives

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def names(self) -> list[str]:
        seen: dict[str, str] = {}
        for (n, _), key in zip(self._items, self._keys):
            seen.setdefault(key, n)
        return list(seen.values())

    def copy(self) -> "Headers":
        """An equal ``Headers`` that shares these field lists until either
        side mutates them."""
        return Headers(self)

    def prepended(self, name: str, value: str) -> "Headers":
        """A new ``Headers``: ``name: value`` first, then these fields.

        For a field its caller built itself, such as the ``Date`` an
        origin formats: the name is validated (through the memo), the
        value is taken as it is and must already be a valid, stripped
        field value.  A known :meth:`wire_size` carries forward, grown
        by the new line, and so do parsed directives the new field does
        not touch.
        """
        key = _folded_name(name)
        headers = Headers.__new__(Headers)
        headers._items = [(name, value), *self._items]
        headers._keys = [key, *self._keys]
        size = self._wire_size
        headers._wire_size = (None if size is None
                              else size + _field_size(name, value))
        headers._cache_control = (None if key == "cache-control"
                                  else self._cache_control)
        headers._shared = False
        return headers

    def selected(self, names: tuple[str, ...]) -> "Headers":
        """A new ``Headers`` with every occurrence of the (distinct)
        fields ``names`` names, in one pass: grouped in the order of
        ``names`` (occurrences in their order here) and spelled as
        ``names`` spells them, as if each were ``add``-ed from
        :meth:`get_all` in turn.  The values are taken as they are (they
        were validated here).
        """
        ranks = _selection(names)
        picked = sorted((rank, position)
                        for position, rank in enumerate(map(ranks.get,
                                                            self._keys))
                        if rank is not None)
        items = self._items
        headers = Headers.__new__(Headers)
        headers._items = [(names[rank], items[position][1])
                          for rank, position in picked]
        headers._keys = [self._keys[position] for _, position in picked]
        headers._wire_size = None
        headers._cache_control = None
        headers._shared = False
        return headers

    # -- dunder ------------------------------------------------------------
    def __getitem__(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __setitem__(self, name: str, value: str) -> None:
        self.set(name, value)

    def __delitem__(self, name: str) -> None:
        key = name.lower()
        if key not in self._keys:
            raise KeyError(name)
        self._drop(key)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return name.lower() in self._keys

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return (n for n, _ in self._items)

    def __eq__(self, other: object) -> bool:
        """Order-insensitive, name-case-insensitive equality."""
        if not isinstance(other, Headers):
            return NotImplemented
        mine = sorted(zip(self._keys, (v for _, v in self._items)))
        theirs = sorted(zip(other._keys, (v for _, v in other._items)))
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v!r}" for n, v in self._items)
        return f"Headers({inner})"

    # -- wire accounting ----------------------------------------------------
    def wire_size(self) -> int:
        """Bytes these headers occupy serialized (``Name: value\\r\\n``)."""
        size = self._wire_size
        if size is None:
            size = 4 * len(self._items)
            for n, v in self._items:
                size += len(n) + (len(v) if v.isascii()
                                  else len(v.encode("utf-8", "replace")))
            self._wire_size = size
        return size
