"""Property tests for the mergeable sketch's accuracy contract.

The documented guarantee (see ``repro.obs.sketch``): for any
distribution of positive samples split across any number of shards —
including empty shards and single-sample shards — merging the shard
sketches and asking for ``percentile(q)`` returns a value within the
sketch's relative error of the *pooled* samples' true nearest-rank
percentile.  This is the property that makes merged serving-fleet
latency percentiles trustworthy.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import LogHistogram

pytestmark = pytest.mark.obs

# Positive, finite, spanning ~9 decades — latencies, byte counts, ratios.
values = st.lists(
    st.floats(min_value=1e-3, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300)

# Shard assignment is arbitrary; empty shards must be harmless.
shard_counts = st.integers(min_value=1, max_value=8)
quantiles = st.sampled_from([1.0, 10.0, 50.0, 90.0, 99.0, 100.0])


def true_nearest_rank(samples, q):
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@given(samples=values, shards=shard_counts, q=quantiles)
@settings(max_examples=200, deadline=None)
def test_merged_shards_match_pooled_percentiles(samples, shards, q):
    sharded = [LogHistogram() for _ in range(shards)]
    for i, value in enumerate(samples):
        sharded[i % shards].observe(value)

    merged = LogHistogram()
    for shard in sharded:  # some shards may be empty: len < shards
        merged.merge(shard)

    assert merged.count == len(samples)
    truth = true_nearest_rank(samples, q)
    estimate = merged.percentile(q)
    # bounded relative error, with a whisker of float slack for values
    # sitting exactly on a bucket boundary
    assert abs(estimate - truth) <= merged.relative_error * truth + 1e-9


@given(samples=values, shards=shard_counts)
@settings(max_examples=100, deadline=None)
def test_merge_equals_single_sketch_bucket_for_bucket(samples, shards):
    # Stronger than the error bound: merging is *lossless* sketching —
    # the merged state is identical to one sketch fed every sample.
    pooled = LogHistogram()
    sharded = [LogHistogram() for _ in range(shards)]
    for i, value in enumerate(samples):
        pooled.observe(value)
        sharded[i % shards].observe(value)
    merged = LogHistogram()
    for shard in sharded:
        merged.merge(shard.to_dict())  # over the portable dump, as the
        # process pool does
    merged_state, pooled_state = merged.to_dict(), pooled.to_dict()
    # float sums depend on addition order across shards; everything
    # else — bucket counts included — must be identical
    assert merged_state.pop("total") == pytest.approx(
        pooled_state.pop("total"))
    assert merged_state == pooled_state


@given(value=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_single_sample_is_exact(value):
    sketch = LogHistogram()
    sketch.observe(value)
    for q in (1.0, 50.0, 100.0):
        # min == max clamping makes a one-sample sketch exact
        assert sketch.percentile(q) == value


def test_merging_only_empty_shards_stays_empty():
    merged = LogHistogram()
    for _ in range(5):
        merged.merge(LogHistogram())
    assert merged.count == 0
    assert merged.percentile(50) == 0.0
