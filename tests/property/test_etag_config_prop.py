"""Property-based tests for the X-Etag-Config codec."""

import json
import string

from hypothesis import given, strategies as st

from repro.core import etag_config
from repro.core.etag_config import EtagConfig
from repro.http.etag import ETag

url_chars = string.ascii_letters + string.digits + "/._-~%"
urls = st.text(alphabet=url_chars, min_size=1, max_size=40) \
    .map(lambda s: "/" + s)
opaques = st.text(alphabet=string.ascii_letters + string.digits,
                  min_size=1, max_size=20)
entry_dicts = st.dictionaries(urls, opaques, max_size=30)


def config_from(entries: dict[str, str]) -> EtagConfig:
    return EtagConfig(entries={url: ETag(opaque=tag)
                               for url, tag in entries.items()})


@given(entry_dicts)
def test_header_roundtrip(entries):
    config = config_from(entries)
    parsed = EtagConfig.from_header_value(config.to_header_value())
    assert {u: e.opaque for u, e in parsed.entries.items()} == entries


@given(entry_dicts)
def test_header_size_matches_actual(entries):
    config = config_from(entries)
    if entries:
        expected = len("X-Etag-Config") + 2 \
            + len(config.to_header_value().encode()) + 2
        assert config.header_size() == expected
    else:
        assert config.header_size() == 0


@given(entry_dicts, entry_dicts)
def test_merge_prefers_right_operand(a, b):
    merged = config_from(a).merged_with(config_from(b))
    for url, opaque in b.items():
        assert merged.etag_for(url).opaque == opaque
    for url, opaque in a.items():
        if url not in b:
            assert merged.etag_for(url).opaque == opaque


@given(entry_dicts, st.integers(min_value=1, max_value=10))
def test_cap_is_a_prefix(entries, cap):
    pairs = list(entries.items())
    config = EtagConfig.from_pairs(
        [(u, ETag(opaque=t)) for u, t in pairs], max_entries=cap)
    assert len(config) == min(cap, len(pairs))
    for url, tag in pairs[:len(config)]:
        assert config.etag_for(url).opaque == tag


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
#: header values as a client may receive them: arbitrary strings, maps
#: with entries of any JSON type, and truncated maps
map_values = st.one_of(
    st.text(max_size=60),
    st.dictionaries(urls, opaques | json_values, max_size=8).map(json.dumps),
    st.tuples(entry_dicts.map(lambda d: json.dumps(d, separators=(",", ":"))),
              st.integers(min_value=0, max_value=200))
    .map(lambda pair: pair[0][:pair[1]]))


def _read(parsed) -> tuple:
    config, dropped = parsed
    return (None if config is None
            else [(url, tag.opaque) for url, tag in config.entries.items()],
            dropped)


@given(st.lists(map_values, min_size=1, max_size=6))
def test_memoized_lenient_parse_equals_a_fresh_parse(values):
    fresh = etag_config._parse_lenient.__wrapped__
    for value in values + values:  # the second round hits the memo
        got = EtagConfig.from_header_value_lenient(value)
        assert _read(got) == _read(fresh(value))
        if got[0] is not None:  # using a shared map leaves it as it was
            got[0].merged_with(got[0]).digest()
            got[0].digest()
