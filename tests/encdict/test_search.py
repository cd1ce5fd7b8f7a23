"""EnclDictSearch + AttrVectSearch correctness for all nine kinds.

Every test compares the full two-step search against a plaintext linear
scan (the ground truth of paper §2.1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnstore.types import IntegerType, VarcharType
from repro.encdict.attrvect import attr_vect_search, attr_vect_search_many
from repro.encdict.options import ALL_KINDS, ED2, ED5
from repro.encdict.search import (
    DUMMY_RANGE,
    OrdinalRange,
    SearchResult,
    plain_search,
)
from repro.exceptions import AuthenticationError, QueryError

from tests.encdict.conftest import EdHarness, reference_range_search

NAMES = ["Jessica", "Jessica", "Archie", "Archie", "Jessica", "Hans", "Ella"]


def test_paper_example_search(harness, kind):
    """Figure 1's search: R = [Archie, Hans] over the FName column."""
    column = ["Hans", "Jessica", "Archie", "Jessica", "Jessica", "Archie"]
    build = harness.build(column, kind)
    records = harness.search_records(build, "Archie", "Hans")
    assert records == [0, 2, 5]


def test_exact_match_range(harness, kind):
    build = harness.build(NAMES, kind)
    assert harness.search_records(build, "Jessica", "Jessica") == [0, 1, 4]


def test_range_covering_everything(harness, kind):
    build = harness.build(NAMES, kind)
    assert harness.search_records(build, "A", "Z") == list(range(len(NAMES)))


def test_empty_range_between_values(harness, kind):
    build = harness.build(NAMES, kind)
    assert harness.search_records(build, "F", "G") == []


def test_range_below_all_values(harness, kind):
    build = harness.build(NAMES, kind)
    assert harness.search_records(build, "0", "9") == []


def test_range_above_all_values(harness, kind):
    build = harness.build(NAMES, kind)
    assert harness.search_records(build, "Z", "ZZ") == []


def test_range_with_missing_endpoints(harness, kind):
    """Bounds that are not dictionary members still match correctly."""
    build = harness.build(NAMES, kind)
    expected = reference_range_search(NAMES, "Arc", "I")
    assert harness.search_records(build, "Arc", "I") == expected


def test_integer_column_search(harness, kind):
    values = [10, -5, 3, 10, 99, 3, 3, -5, 0]
    build = harness.build(values, kind, value_type=IntegerType())
    assert harness.search_records(build, 0, 10) == reference_range_search(
        values, 0, 10
    )
    assert harness.search_records(build, -1000, 1000) == list(range(len(values)))


def test_negative_integer_boundaries(harness, kind):
    values = [-(2**31), 2**31 - 1, 0, -1, 1]
    build = harness.build(values, kind, value_type=IntegerType())
    assert harness.search_records(build, -(2**31), -1) == [0, 3]
    assert harness.search_records(build, 2**31 - 1, 2**31 - 1) == [1]


def test_single_entry_dictionary(harness, kind):
    build = harness.build(["solo"], kind)
    assert harness.search_records(build, "solo", "solo") == [0]
    assert harness.search_records(build, "a", "b") == []
    assert harness.search_records(build, "z", "zz") == []


def test_all_identical_values(harness, kind):
    """Degenerate column: one unique value repeated."""
    values = ["same"] * 9
    build = harness.build(values, kind)
    assert harness.search_records(build, "same", "same") == list(range(9))
    assert harness.search_records(build, "a", "rzzz") == []
    assert harness.search_records(build, "t", "z") == []
    assert harness.search_records(build, "a", "z") == list(range(9))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    low=st.integers(-60, 60),
    span=st.integers(0, 60),
)
def test_search_matches_reference_property(data, values, low, span):
    """Randomized columns and ranges across every kind and both orders."""
    harness = EdHarness(seed=b"property-seed")
    kind = data.draw(st.sampled_from(ALL_KINDS))
    bsmax = data.draw(st.integers(1, 5))
    build = harness.build(values, kind, value_type=IntegerType(), bsmax=bsmax)
    high = low + span
    assert harness.search_records(build, low, high) == reference_range_search(
        values, low, high
    )


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    values=st.lists(
        st.text(alphabet="abc", min_size=0, max_size=3), min_size=1, max_size=25
    ),
)
def test_string_search_matches_reference_property(data, values):
    harness = EdHarness(seed=b"property-str")
    kind = data.draw(st.sampled_from(ALL_KINDS))
    low = data.draw(st.text(alphabet="abc", max_size=3))
    high = data.draw(st.text(alphabet="abc", max_size=3))
    if low > high:
        low, high = high, low
    build = harness.build(values, kind, value_type=VarcharType(4))
    assert harness.search_records(build, low, high) == reference_range_search(
        values, low, high
    )


# ----------------------------------------------------------------------
# Rotated-search specifics
# ----------------------------------------------------------------------


def _build_with_offset(harness, values, kind, wanted_offset, bsmax=3):
    """Rebuild with fresh randomness until the rotation offset matches."""
    for attempt in range(400):
        harness.rng = harness.rng.fork(f"attempt-{attempt}")
        build = harness.build(values, kind, bsmax=bsmax)
        if build.stats.rnd_offset == wanted_offset:
            return build
    raise AssertionError(f"offset {wanted_offset} never drawn")


def test_rotated_every_offset_is_correct():
    """ED2 returns correct results for every possible rotation offset."""
    harness = EdHarness(seed=b"offsets")
    values = ["b", "d", "a", "c", "e", "b"]
    n_unique = len(set(values))
    for offset in range(n_unique):
        build = _build_with_offset(harness, values, ED2, offset)
        for low, high in [("a", "e"), ("b", "c"), ("a", "a"), ("e", "e"), ("c", "z")]:
            assert harness.search_records(build, low, high) == (
                reference_range_search(values, low, high)
            ), f"offset={offset} range=({low},{high})"


def test_rotated_duplicate_wrap_corner_case():
    """The ED5 corner case: duplicates of D[0]'s value wrap the array end.

    Forces a column whose smoothing duplicates + rotation make the first
    and last dictionary entries share a plaintext (paper §4.1, ED5), then
    checks all query shapes.
    """
    harness = EdHarness(seed=b"wrap")
    values = ["m"] * 8 + ["a", "z"]
    hit = False
    for attempt in range(300):
        harness.rng = harness.rng.fork(f"wrap-{attempt}")
        build = harness.build(values, ED5, bsmax=3)
        first = build.dictionary.entry(0)
        last = build.dictionary.entry(len(build.dictionary) - 1)
        vt = build.dictionary.value_type
        first_v = vt.from_bytes(harness.pae.decrypt(harness.key, first))
        last_v = vt.from_bytes(harness.pae.decrypt(harness.key, last))
        for low, high in [("m", "m"), ("a", "m"), ("m", "z"), ("a", "z"), ("b", "l")]:
            assert harness.search_records(build, low, high) == (
                reference_range_search(values, low, high)
            )
        if first_v == last_v and len(build.dictionary) > 1:
            hit = True
            break
    assert hit, "never produced the duplicate-wrap corner case"


def test_rotated_offset_zero_corner_case():
    """rndOffset = 0 (explicitly called out in the paper) must work."""
    harness = EdHarness(seed=b"zero")
    values = ["b", "a", "c", "a"]
    build = _build_with_offset(harness, values, ED2, 0)
    for low, high in [("a", "c"), ("a", "a"), ("b", "c"), ("d", "e")]:
        assert harness.search_records(build, low, high) == reference_range_search(
            values, low, high
        )


def test_rotated_returns_dummy_padded_ranges(harness):
    """Single-range rotated results are padded with the (-1,-1) dummy."""
    build = harness.build(["a", "b", "c", "d"], ED2)
    vt = build.dictionary.value_type
    result = harness.searcher.search(
        build.dictionary,
        OrdinalRange(vt.ordinal("b"), vt.ordinal("c")),
        key=harness.key,
    )
    assert len(result.ranges) == 2
    assert DUMMY_RANGE in result.ranges or all(
        r != DUMMY_RANGE for r in result.ranges
    )


def test_search_result_helpers():
    empty = SearchResult(ranges=(DUMMY_RANGE, DUMMY_RANGE))
    assert empty.is_empty
    assert empty.matched_vid_count() == 0
    full = SearchResult(ranges=((0, 4), DUMMY_RANGE), vids=(9,))
    assert not full.is_empty
    assert full.matched_vid_count() == 6


def test_ordinal_range_serialization_roundtrip():
    for low, high in [(0, 0), (5, 99), (2**200, 2**250), (-1, -1)]:
        rt = OrdinalRange.from_bytes(OrdinalRange(low, high).to_bytes())
        assert (rt.low, rt.high) == (low, high)
    with pytest.raises(QueryError):
        OrdinalRange.from_bytes(b"short")


def test_wrong_key_fails_authentication(harness):
    build = harness.build(NAMES, ALL_KINDS[0])
    vt = build.dictionary.value_type
    bad_key = bytes(16)
    with pytest.raises(AuthenticationError):
        harness.searcher.search(
            build.dictionary,
            OrdinalRange(vt.ordinal("A"), vt.ordinal("Z")),
            key=bad_key,
        )


def test_plain_search_matches_encrypted(harness, kind):
    """PlainDBDB's search (no PAE) agrees with the encrypted pipeline."""
    values = [3, 1, 4, 1, 5, 9, 2, 6]
    plain_build = harness.build(values, kind, value_type=IntegerType(), encrypted=False)
    result = plain_search(
        plain_build.dictionary,
        OrdinalRange(IntegerType().ordinal(2), IntegerType().ordinal(5)),
    )
    records = sorted(
        attr_vect_search(plain_build.attribute_vector, result).tolist()
    )
    assert records == reference_range_search(values, 2, 5)


# ----------------------------------------------------------------------
# AttrVectSearch unit behaviour
# ----------------------------------------------------------------------


def test_attr_vect_search_with_ranges():
    av = np.array([2, 0, 1, 2, 3, 1], dtype=np.int64)
    result = SearchResult(ranges=((0, 1), DUMMY_RANGE))
    assert attr_vect_search(av, result).tolist() == [1, 2, 5]


def test_attr_vect_search_with_two_ranges():
    av = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    result = SearchResult(ranges=((0, 1), (4, 5)))
    assert attr_vect_search(av, result).tolist() == [0, 1, 4, 5]


def test_attr_vect_search_with_vid_list():
    av = np.array([2, 0, 1, 2, 3, 1], dtype=np.int64)
    result = SearchResult(vids=(2, 3))
    assert attr_vect_search(av, result).tolist() == [0, 3, 4]


def test_attr_vect_search_empty_inputs():
    av = np.array([], dtype=np.int64)
    assert attr_vect_search(av, SearchResult(vids=(1,))).tolist() == []
    av = np.array([1, 2], dtype=np.int64)
    assert attr_vect_search(av, SearchResult()).tolist() == []


def test_attr_vect_search_counts_comparisons():
    from repro.sgx.costs import CostModel

    av = np.array([0, 1, 2, 3], dtype=np.int64)
    cost = CostModel()
    attr_vect_search(av, SearchResult(vids=(0, 1, 2)), cost_model=cost)
    assert cost.comparisons == 12  # |AV| * |vid|
    cost.reset()
    # Uniform per-slot accounting: the dummy padding slot charges the same
    # |AV| as the real range, so the comparison count cannot reveal how many
    # slots were real (the result arrives dummy-padded for exactly that
    # reason).
    attr_vect_search(av, SearchResult(ranges=((0, 1), DUMMY_RANGE)), cost_model=cost)
    assert cost.comparisons == 8  # |AV| per slot, real or dummy
    cost.reset()
    # An empty real range (low > high) is charged like any other slot too.
    attr_vect_search(av, SearchResult(ranges=((3, 1), DUMMY_RANGE)), cost_model=cost)
    assert cost.comparisons == 8


def test_search_many_matches_per_partition_scans():
    rng = np.random.default_rng(7)
    jobs = []
    for length in (0, 17, 256, 999):
        av = rng.integers(0, 50, size=length).astype(np.int64)
        jobs.append((av, SearchResult(ranges=((5, 9), DUMMY_RANGE))))
    jobs.append((np.arange(100, dtype=np.int64), SearchResult(vids=(3, 7))))

    results = attr_vect_search_many(jobs)
    assert len(results) == len(jobs)
    for (av, search), rids in zip(jobs, results):
        assert rids.tolist() == attr_vect_search(av, search).tolist()


def test_search_many_cost_equals_concatenated_scan():
    """Partitioning a column must not change its comparison count."""
    from repro.sgx.costs import CostModel

    av = np.arange(1000, dtype=np.int64)
    search = SearchResult(ranges=((100, 200), DUMMY_RANGE))

    whole = CostModel()
    attr_vect_search(av, search, cost_model=whole)

    split = CostModel()
    attr_vect_search_many([(av[:400], search), (av[400:], search)], cost_model=split)
    assert split.comparisons == whole.comparisons
