"""Vectorized kernels vs the scalar reference oracle (PR 6).

The contract under test: packing a partition's ordinals into one array and
answering searches with bulk numpy kernels changes *how fast* a search runs
and nothing else — results, probe logs, and the logical cost-model charges
(untrusted loads, comparisons) must equal the scalar path's exactly, for
all nine ED kinds, including the rotated D[0]-duplicate wrap corner case
and empty/dummy ranges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.encdict import kernels
from repro.encdict.attrvect import attr_vect_search
from repro.encdict.options import ED3, ED5, ED8, OrderOption
from repro.encdict.search import (
    _SEARCHERS,
    PACKED_SENTINEL,
    DictionaryAccessor,
    DictionarySearcher,
    OrdinalRange,
)
from repro.sgx.cache import EnclaveLruCache
from repro.sgx.costs import CostModel

from tests.encdict.conftest import EdHarness, reference_range_search

# Duplicate-heavy, distinct-only, two-valued and singleton dictionaries:
# between them they cover smoothing/hiding duplicate runs, the rotated
# wrap-around layouts, and the degenerate shapes.
VALUE_SETS = {
    "duplicate-heavy": ["a", "a", "a", "a", "b", "c", "a", "a", "d", "a"],
    "distinct": [f"v{i:02d}" for i in range(17)],
    "two-values": ["x", "y"] * 6,
    "single": ["only"],
}

# (low, high) query values: equality, sub-range, full range, miss above the
# domain, miss between values, and an empty range (low > high => the dummy
# short-circuit).
QUERIES = [
    ("a", "a"),
    ("a", "b"),
    ("b", "d"),
    ("a", "z"),
    ("e", "f"),
    ("z", "a"),
]


def _accessor(harness, build, cost=None, cache=None):
    return DictionaryAccessor(
        build.dictionary,
        key=harness.key,
        pae=harness.pae,
        cost_model=cost,
        cache=cache,
    )


def _ordinal_range(build, low, high):
    vt = build.dictionary.value_type
    return OrdinalRange(vt.ordinal(low), vt.ordinal(high))


def _assert_equivalent(harness, build, order, search, values, low, high):
    """Scalar oracle vs packed-warm vectorized run: results, probes, loads
    and comparisons must match exactly."""
    scalar_cost = CostModel()
    scalar = _accessor(harness, build, cost=scalar_cost)
    expected = _SEARCHERS[order](scalar, search)

    cache = EnclaveLruCache(budget_bytes=1 << 20)
    fill_cost = CostModel()
    fill = _accessor(harness, build, cost=fill_cost, cache=cache)
    packed = fill.packed_ordinals(fill=True)
    assert packed is not None
    # The decrypt-once fill charges exactly one decryption per entry — the
    # logical count of a cold scalar linear scan.
    assert fill_cost.decryptions == len(build.dictionary)

    vec_cost = CostModel()
    vectorized = _accessor(harness, build, cost=vec_cost, cache=cache)
    assert vectorized.packed_ordinals(fill=False) is not None
    got = _SEARCHERS[order](vectorized, search)

    assert got.ranges == expected.ranges
    assert got.vids == expected.vids
    assert vectorized.probes == scalar.probes
    assert vec_cost.untrusted_loads == scalar_cost.untrusted_loads
    assert vec_cost.comparisons == scalar_cost.comparisons
    # Packed-warm searches never decrypt entries; only the rotated family
    # still decrypts encRndOffset (Algorithm 2 line 3) on a cold cache.
    budget = 1 if order is OrderOption.ROTATED else 0
    assert vec_cost.decryptions <= budget

    # Record-level ground truth through the attribute vector.
    records = sorted(attr_vect_search(build.attribute_vector, got).tolist())
    assert records == reference_range_search(values, low, high)


@pytest.mark.parametrize("label", sorted(VALUE_SETS))
def test_vectorized_matches_scalar_oracle(kind, label):
    values = VALUE_SETS[label]
    harness = EdHarness(seed=b"kernel-equiv-" + label.encode())
    build = harness.build(values, kind)
    for low, high in QUERIES:
        _assert_equivalent(
            harness, build, kind.order, _ordinal_range(build, low, high),
            values, low, high,
        )


@pytest.mark.parametrize("kind_wrap", [ED5, ED8], ids=lambda k: k.name)
def test_rotated_duplicate_wrap_corner_case(kind_wrap):
    """Find builds where D[0]'s duplicates wrap past the rotation point (the
    ED5 corner case of §4.1) and pin scalar/vectorized equivalence there."""
    values = VALUE_SETS["duplicate-heavy"]
    wraps_seen = 0
    for seed in range(12):
        harness = EdHarness(seed=f"wrap-{kind_wrap.name}-{seed}".encode())
        build = harness.build(values, kind_wrap)
        probe = _accessor(harness, build)
        n = len(probe)
        offset = probe.rotation_offset()
        wraps = offset > 0 and probe.ordinal(n - 1) == probe.ordinal(0)
        if not wraps:
            continue
        wraps_seen += 1
        for low, high in QUERIES:
            _assert_equivalent(
                harness, build, kind_wrap.order,
                _ordinal_range(build, low, high), values, low, high,
            )
    assert wraps_seen > 0  # the sweep must actually hit the corner case


def test_searcher_flag_selects_identical_results(kind):
    """End-to-end through DictionarySearcher: what selects the packed
    kernels is having a cache to keep the array in. A cached searcher and
    the cache-less scalar reference return identical SearchResults for
    every kind and range, and only the cached one ever attaches an array."""
    values = VALUE_SETS["duplicate-heavy"]
    harness = EdHarness(seed=b"searcher-flag")
    build = harness.build(values, kind)
    cache = EnclaveLruCache(budget_bytes=1 << 20)
    fast = DictionarySearcher(harness.pae, CostModel(), cache)
    slow = DictionarySearcher(harness.pae, CostModel())
    for low, high in QUERIES:
        search = _ordinal_range(build, low, high)
        for _ in range(2):  # cold then warm cache
            got = fast.search(build.dictionary, search, key=harness.key)
            want = slow.search(build.dictionary, search, key=harness.key)
            assert got.ranges == want.ranges and got.vids == want.vids
    packed_resident = any(PACKED_SENTINEL in key for key in cache._entries)
    assert packed_resident == (kind.order is OrderOption.UNSORTED)
    assert slow.accessor(build.dictionary, key=harness.key).packed is None


def test_packed_cache_key_isolates_dictionaries():
    """Regression: two same-length dictionaries under the same (table,
    column, partition, epoch) prefix must never share a packed array — the
    key's first-blob component tells them apart (PAE IVs are draw-unique)."""
    harness = EdHarness(seed=b"key-isolation")
    cache = EnclaveLruCache(budget_bytes=1 << 20)
    first = harness.build(["a", "b", "c", "d"], ED3)
    second = harness.build(["q", "r", "s", "t"], ED3)  # same names, same size

    packed_first = _accessor(harness, first, cache=cache).packed_ordinals(fill=True)
    assert packed_first is not None

    fresh = _accessor(harness, second, cache=cache)
    assert fresh.packed_ordinals(fill=False) is None  # no cross-dictionary hit
    packed_second = fresh.packed_ordinals(fill=True)
    vt = second.dictionary.value_type
    expected = sorted(vt.ordinal(v) for v in ["q", "r", "s", "t"])
    assert sorted(int(o) for o in packed_second) == expected


def test_packed_array_is_epc_accounted():
    harness = EdHarness(seed=b"epc-accounting")
    build = harness.build(VALUE_SETS["distinct"], ED3)
    cache = EnclaveLruCache(budget_bytes=1 << 20)
    packed = _accessor(harness, build, cache=cache).packed_ordinals(fill=True)
    usage = cache.group_usage()
    assert sum(usage.values()) == kernels.packed_footprint(packed)


# ----------------------------------------------------------------------
# Kernel unit tests (both dtypes, bound clamping)
# ----------------------------------------------------------------------


def test_pack_ordinals_picks_int64_when_it_fits():
    packed = kernels.pack_ordinals([3, kernels.INT64_MIN, kernels.INT64_MAX])
    assert packed.dtype == np.int64
    assert packed.tolist() == [3, kernels.INT64_MIN, kernels.INT64_MAX]


def test_pack_ordinals_falls_back_to_object_for_huge_ordinals():
    ordinals = [1, 2**80, -(2**70), 0]  # VARCHAR-scale base-257 codes
    packed = kernels.pack_ordinals(ordinals)
    assert packed.dtype == object
    assert list(packed) == ordinals
    assert kernels.unsorted_scan(packed, 0, 2**90) == (0, 1, 3)
    assert kernels.unsorted_scan(packed, -(2**75), 5) == (0, 2, 3)


def test_unsorted_scan_matches_linear_reference():
    ordinals = [9, 1, 5, 5, 2, 8, 0, 5]
    packed = kernels.pack_ordinals(ordinals)
    for low, high in [(1, 5), (5, 5), (0, 9), (6, 7), (10, 20), (3, 2)]:
        expected = tuple(
            i for i, o in enumerate(ordinals) if low <= o <= high
        )
        assert kernels.unsorted_scan(packed, low, high) == expected
    assert kernels.unsorted_scan(kernels.pack_ordinals([]), 0, 10) == ()


def test_sorted_bounds_handles_duplicates_and_misses():
    packed = kernels.pack_ordinals([1, 2, 2, 2, 5, 9])
    assert kernels.sorted_bounds(packed, 2, 5) == (1, 4)
    assert kernels.sorted_bounds(packed, 2, 2) == (1, 3)
    assert kernels.sorted_bounds(packed, 0, 100) == (0, 5)
    vid_min, vid_max = kernels.sorted_bounds(packed, 3, 4)  # between values
    assert vid_min > vid_max
    vid_min, vid_max = kernels.sorted_bounds(packed, 10, 20)  # above domain
    assert vid_min > vid_max
    assert kernels.sorted_bounds(kernels.pack_ordinals([]), 0, 1) == (0, -1)


def test_sorted_bounds_agrees_with_binary_search(kind):
    """Cross-check kernel vs Algorithm 1 on sorted kinds: the searchsorted
    bounds equal the binary search's returned range."""
    if kind.order is not OrderOption.SORTED:
        pytest.skip("sorted-kind cross-check only")
    values = VALUE_SETS["duplicate-heavy"]
    harness = EdHarness(seed=b"bounds-crosscheck")
    build = harness.build(values, kind)
    accessor = _accessor(harness, build)
    packed = kernels.pack_ordinals(
        [accessor.ordinal(i) for i in range(len(accessor))]
    )
    for low, high in QUERIES[:-1]:  # skip the empty range (dummy result)
        search = _ordinal_range(build, low, high)
        result = _SEARCHERS[OrderOption.SORTED](
            _accessor(harness, build), search
        )
        vid_min, vid_max = kernels.sorted_bounds(packed, search.low, search.high)
        if vid_min > vid_max:
            assert result.is_empty
        else:
            assert result.ranges[0] == (vid_min, vid_max)


def test_int64_bounds_clamp_instead_of_overflowing():
    packed = kernels.pack_ordinals([kernels.INT64_MIN, 0, kernels.INT64_MAX])
    huge = 2**200
    assert kernels.unsorted_scan(packed, -huge, huge) == (0, 1, 2)
    assert kernels.unsorted_scan(packed, 2**70, 2**80) == ()  # above int64
    assert kernels.unsorted_scan(packed, -huge, -(2**70)) == ()  # below int64
    assert kernels.sorted_bounds(packed, -huge, huge) == (0, 2)
    vid_min, vid_max = kernels.sorted_bounds(packed, 2**70, 2**80)
    assert vid_min > vid_max


def test_packed_footprint_accounts_both_dtypes():
    dense = kernels.pack_ordinals(list(range(100)))
    assert kernels.packed_footprint(dense) == dense.nbytes + 64
    boxed = kernels.pack_ordinals([2**80] * 10)
    assert kernels.packed_footprint(boxed) == 48 * 10 + 64
