"""Property-based tests for the header multimap."""

import copy
import string

from hypothesis import example, given, settings, strategies as st

from repro.http.headers import Headers

token_chars = string.ascii_letters + string.digits + "-_"
names = st.text(alphabet=token_chars, min_size=1, max_size=20)
values = st.text(alphabet=string.ascii_letters + string.digits + " .,;=\"'",
                 min_size=0, max_size=60).map(str.strip)
pairs = st.lists(st.tuples(names, values), max_size=20)


@given(pairs)
def test_roundtrip_through_items(items):
    headers = Headers(items)
    rebuilt = Headers(list(headers.items()))
    assert rebuilt == headers


@given(pairs, names)
def test_get_all_matches_manual_filter(items, probe):
    headers = Headers(items)
    expected = [value.strip() for name, value in items
                if name.lower() == probe.lower()]
    assert headers.get_all(probe) == expected


@given(pairs, names, values)
def test_set_then_get(items, name, value):
    headers = Headers(items)
    headers.set(name, value)
    assert headers.get(name) == value
    assert headers.get_all(name) == [value]


@given(pairs, names)
def test_remove_removes_everything(items, name):
    headers = Headers(items)
    headers.remove(name)
    assert name not in headers
    assert headers.get_all(name) == []


@given(pairs)
def test_wire_size_matches_serialized_length(items):
    headers = Headers(items)
    serialized = "".join(f"{n}: {v}\r\n" for n, v in headers.items())
    assert headers.wire_size() == len(serialized.encode("utf-8"))


@given(pairs)
def test_copy_equal_but_independent(items):
    headers = Headers(items)
    clone = headers.copy()
    assert clone == headers
    clone.add("X-Extra", "1")
    assert ("X-Extra" in clone) and ("X-Extra" not in headers)


@given(pairs)
def test_len_counts_occurrences(items):
    assert len(Headers(items)) == len(items)


class _ReferenceHeaders:
    """The list-scan multimap ``Headers`` replaced, kept as the oracle.

    Every lookup lowers every field name; the indexed ``Headers`` must be
    indistinguishable from it through the public API.
    """

    def __init__(self, items=None):
        self._items = []
        if items is None:
            return
        if isinstance(items, _ReferenceHeaders):
            self._items = list(items._items)
        elif isinstance(items, dict):
            for name, value in items.items():
                self.add(name, value)
        else:
            for name, value in items:
                self.add(name, value)

    def add(self, name, value):
        self._items.append((self._check_name(name), self._check_value(value)))

    def set(self, name, value):
        self.remove(name)
        self.add(name, value)

    def setdefault(self, name, value):
        existing = self.get(name)
        if existing is not None:
            return existing
        self.add(name, value)
        return value

    def replace(self, name, value):
        key = name.lower()
        replaced = False
        items = []
        for n, v in self._items:
            if n.lower() == key:
                if replaced:
                    continue
                items.append((n, self._check_value(value)))
                replaced = True
            else:
                items.append((n, v))
        self._items = items
        if not replaced:
            self.add(name, value)

    def remove(self, name):
        key = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != key]

    def extend(self, items):
        for name, value in _ReferenceHeaders(items).items():
            self.add(name, value)

    def get(self, name, default=None):
        key = name.lower()
        for n, v in self._items:
            if n.lower() == key:
                return v
        return default

    def get_all(self, name):
        key = name.lower()
        return [v for n, v in self._items if n.lower() == key]

    def get_joined(self, name):
        values = self.get_all(name)
        if not values:
            return None
        return ", ".join(values)

    def items(self):
        return iter(self._items)

    def names(self):
        seen = {}
        for n, _ in self._items:
            seen.setdefault(n.lower(), n)
        return list(seen.values())

    def copy(self):
        return _ReferenceHeaders(self)

    def __delitem__(self, name):
        if name.lower() not in (n.lower() for n, _ in self._items):
            raise KeyError(name)
        self.remove(name)

    def __contains__(self, name):
        if not isinstance(name, str):
            return False
        return self.get(name) is not None

    def __len__(self):
        return len(self._items)

    def wire_size(self):
        return sum(len(n) + 2 + len(v.encode("utf-8", "replace")) + 2
                   for n, v in self._items)

    @staticmethod
    def _check_name(name):
        if not name or any(c in name for c in " \t\r\n:"):
            raise ValueError(f"invalid header field name: {name!r}")
        return name

    @staticmethod
    def _check_value(value):
        if not isinstance(value, str):
            raise TypeError(f"header value must be str, got {type(value)}")
        if "\r" in value or "\n" in value:
            raise ValueError("header value contains CR/LF (smuggling risk)")
        return value.strip()


#: a few names in several spellings, so operations collide by case
PROBE_NAMES = ("ETag", "etag", "ETAG", "Cache-Control", "cache-control",
               "Vary", "X-Ünïcode", "Set-Cookie")
op_names = st.one_of(st.sampled_from(PROBE_NAMES),
                     st.sampled_from(("", "bad name", "x:y", "tab\tname")))
op_values = st.one_of(
    st.text(alphabet="ab ,=é\"", max_size=6),
    st.sampled_from(("  padded  ", "split\r\nvalue", "cr\r")),
    st.just(5))
ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(("add", "set", "replace", "setdefault")),
              op_names, op_values),
    st.tuples(st.sampled_from(("remove", "del")), op_names, st.none()),
    st.tuples(st.just("extend"), st.lists(st.tuples(op_names, op_values),
                                          max_size=3), st.none()),
    st.tuples(st.just("copy"), st.none(), st.none())), max_size=25)


def _apply(headers, op):
    kind, arg, value = op
    if kind == "copy":
        return headers.copy(), None
    if kind == "del":
        del headers[arg]
        return headers, None
    if kind == "remove":
        return headers, headers.remove(arg)
    if kind == "extend":
        return headers, headers.extend(arg)
    return headers, getattr(headers, kind)(arg, value)


def _observe(headers):
    return (list(headers.items()), headers.names(), len(headers),
            headers.wire_size(),
            [(headers.get(name), headers.get(name, "-"),
              headers.get_all(name), headers.get_joined(name),
              name in headers) for name in PROBE_NAMES])


@given(ops)
def test_op_sequences_match_the_list_scan_reference(sequence):
    headers, reference = Headers(), _ReferenceHeaders()
    for op in sequence:
        outcomes = []
        for target in (headers, reference):
            try:
                outcomes.append(_apply(target, op))
            except Exception as exc:  # compared below, not swallowed
                outcomes.append((target, (type(exc), str(exc))))
        (headers, got), (reference, expected) = outcomes
        assert got == expected
        assert _observe(headers) == _observe(reference)
    assert 5 not in headers
    assert headers == Headers(list(reference.items()))


#: pool operations: each names its target by an index into the pool of
#: live objects (modulo its size); ``extend`` and ``update_from`` name a
#: second member, which may be the target itself or share its fields
member = st.integers(min_value=0, max_value=7)
#: mostly valid fields, so most mutations go through
pool_names = st.sampled_from(PROBE_NAMES) | op_names
pool_values = values | op_values
pool_ops = st.lists(st.one_of(
    st.tuples(st.just("copy"), member, st.none(), st.none()),
    st.tuples(st.sampled_from(("add", "set", "setdefault", "replace",
                               "setitem")), member, pool_names,
              pool_values),
    st.tuples(st.sampled_from(("remove", "del")), member, pool_names,
              st.none()),
    st.tuples(st.sampled_from(("extend", "update_from")), member, member,
              st.none())), max_size=30)

#: every mutator once on a fresh copy, then once on the original of
#: fresh copies (the pool grows by one per copy)
_MUTATIONS = [("add", "Vary", "a"), ("set", "ETag", "b"),
              ("setdefault", "Vary", "c"), ("replace", "etag", "d"),
              ("remove", "ETAG", None), ("del", "ETag", None),
              ("setitem", "Cache-Control", "e")]
_ON_COPIES = [op for n, (kind, name, value) in enumerate(_MUTATIONS)
              for op in (("copy", 0, None, None),
                         (kind, n + 1, name, value))] + [
    ("copy", 0, None, None), ("extend", 8, 0, None),
    ("copy", 0, None, None), ("update_from", 9, 1, None)]
_ON_ORIGINALS = [op for kind, name, value in _MUTATIONS
                 for op in (("copy", 0, None, None),
                            (kind, 0, name, value))] + [
    ("copy", 0, None, None), ("extend", 0, 8, None),
    ("copy", 0, None, None), ("update_from", 0, 0, None)]


def _apply_to_pool(pool, op, clone) -> None:
    kind, index, arg, value = op
    target = pool[index % len(pool)]
    if kind == "copy":
        pool.append(clone(target))
    elif kind in ("extend", "update_from"):
        getattr(target, kind)(pool[arg % len(pool)])
    elif kind == "setitem":
        target[arg] = value
    elif kind == "del":
        del target[arg]
    elif kind == "remove":
        target.remove(arg)
    else:
        getattr(target, kind)(arg, value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PROBE_NAMES), values),
                max_size=4), pool_ops)
@example([("ETag", "x"), ("Vary", "y")], _ON_COPIES)
@example([("ETag", "x"), ("Vary", "y")], _ON_ORIGINALS)
def test_copy_on_write_matches_deep_copies(items, sequence):
    """``copy()`` shares field lists until a side mutates them; every
    object must read as if each copy had been a deep copy."""
    pool, model = [Headers(items)], [Headers(items)]
    for op in sequence:
        outcomes = []
        for world, clone in ((pool, Headers.copy), (model, copy.deepcopy)):
            try:
                _apply_to_pool(world, op, clone)
                outcomes.append(None)
            except Exception as exc:  # compared below, not swallowed
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert [_observe(h) for h in pool] == [_observe(h) for h in model]
