"""The bulk filler generator equals the per-word walk it replaced."""

import random

from hypothesis import given, settings, strategies as st

from repro.workload.sitegen import _FILLER_WORDS, _filler

#: the generator itself, past its ``lru_cache``
filler = _filler.__wrapped__

seeds = st.integers(min_value=0, max_value=2 ** 64)


def walk(seed: int, nbytes: int) -> str:
    """The reference: one ``_randbelow(12)`` per word until the words
    reach ``nbytes``, joined by spaces and cut at ``nbytes``."""
    randbelow = random.Random(seed)._randbelow
    chosen = []
    size = 0
    while size < nbytes:
        word = _FILLER_WORDS[randbelow(len(_FILLER_WORDS))]
        chosen.append(word)
        size += len(word) + 1
    return " ".join(chosen)[:nbytes]


@given(seeds, st.integers(min_value=0, max_value=40))
@settings(max_examples=300, deadline=None)
def test_short_fillers_match_walk(seed, nbytes):
    assert filler(seed, nbytes) == walk(seed, nbytes)


@given(seeds, st.integers(min_value=41, max_value=250_000))
@settings(max_examples=40, deadline=None)
def test_long_fillers_match_walk(seed, nbytes):
    assert filler(seed, nbytes) == walk(seed, nbytes)


@given(seeds, st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_last_word_ending_one_short(seed, words):
    """``nbytes`` one past the end of the walk's ``words``-th word: the
    walk stops there and the text is one character short."""
    randbelow = random.Random(seed)._randbelow
    nbytes = sum(len(_FILLER_WORDS[randbelow(len(_FILLER_WORDS))]) + 1
                 for _ in range(words))
    text = filler(seed, nbytes)
    assert text == walk(seed, nbytes)
    assert len(text) == nbytes - 1
    assert not text.endswith(" ")
