"""Paired-dataset trace equivalence for the nine ED kinds (DESIGN.md §15).

The leakage oracle records the provider-observable trace — every ecall
with argument/return *shapes* (sizes and counts, never content) and every
wire frame's byte size. These tests run the same workload over paired
datasets that differ **only in protected values** and assert:

- **value-shift pairs** (same histogram, same order, values and query
  bounds shifted by a constant) produce *identical* traces for all nine
  kinds — no kind may leak value magnitudes through sizes or counts;
- **cardinality pairs** (same row count, different distinct-value counts)
  produce identical traces for the frequency-*hiding* kinds (ED7-9,
  whose dictionary size is the row count by construction) and
  *different* traces for the revealing kinds (ED1-3, |D| is the distinct
  count) — that divergence is their declared Table-3 leakage, asserted
  intentionally. The smoothing kinds (ED4-6) may differ in |D| and in
  nothing else: their traces are identical once every field sized by
  the entry count is masked, and each |D| lies in Algorithm 5's bounds;
- the pushdown GROUP BY response pads its group frames to a power of
  two: group counts inside one padding bucket produce identical response
  shapes, counts crossing a bucket boundary differ (the declared
  power-of-two residual);
- a multi-row INSERT is one ``reseal_delta`` crossing per encrypted
  column: shifted values give identical traces, the row count shows only
  as the length of the blob lists, and a reseal that changed a blob's
  size would be a violation for an INSERT as for a key flip;
- a MERGE (deletes in one partition, a delta absorbed into the last
  partition, then a delta overflowing into a tail partition) gives
  identical traces for shifted values under every kind: the rebuild's
  inputs and outputs are sized by the layout, never by the values.

Only the *empty* and *full-covering* queries run in the cardinality
pairs: a selective range would match different row counts on the two
histograms, and the provider legitimately observes matching record sets
(access-pattern leakage, every kind) — the pair must differ only in what
the *dictionary* reveals.
"""

from __future__ import annotations

import pytest

from repro import EncDBDBSystem
from repro.analysis.leakoracle import capture_trace
from repro.encdict.options import ALL_KINDS

KIND_NAMES = [kind.name for kind in ALL_KINDS]

#: Same multiset shape: 12 distinct values x 2 occurrences, interleaved.
BASE_VALUES = [110 + 5 * (i % 12) for i in range(24)]

#: Same row count (24), different distinct counts: 8 values x 3 occurrences.
FEWER_DISTINCT = [110 + 5 * (i % 8) for i in range(24)]

#: The extreme cardinality pair: one value repeated 24 times vs. 24
#: distinct values. The all-distinct dictionary has |D| = N under *every*
#: repetition option, while the all-same dictionary is at most N and at
#: least N/bsmax entries — so any kind whose frequency leakage is not
#: "none" must distinguish this pair.
ONE_VALUE = [150] * 24
ALL_DISTINCT = [110 + 3 * i for i in range(24)]  # 110..179: inside [100, 200]


def run_workload(
    kind: str, values: list[int], *, shift: int = 0, selective: bool = True
):
    """Build a one-column system, load ``values``, query it; return trace.

    ``shift`` displaces every value *and* every query bound by the same
    constant, so the two runs of a value-shift pair execute structurally
    identical plans over disjoint value domains.
    """
    with capture_trace() as trace:
        system = EncDBDBSystem.create(seed=7)
        system.execute(
            f"CREATE TABLE t (v {kind} INTEGER BSMAX 4, tag INTEGER)"
        )
        # Bulk load builds the encrypted dictionaries (the paper's setting);
        # INSERT would park everything in the per-row delta store and no
        # dictionary would exist to leak anything.
        system.bulk_load(
            "t",
            {
                "v": [value + shift for value in values],
                "tag": [i % 7 for i in range(len(values))],
            },
        )
        if selective:
            system.query(
                f"SELECT tag FROM t WHERE v >= {120 + shift} "
                f"AND v <= {140 + shift}"
            )
        system.query(f"SELECT tag FROM t WHERE v > {1000 + shift}")
        system.query(
            f"SELECT tag FROM t WHERE v >= {100 + shift} AND v <= {200 + shift}"
        )
    return trace


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_value_shift_pair_is_trace_identical(kind):
    """No ED kind may leak value magnitudes: shifted data, same trace."""
    baseline = run_workload(kind, BASE_VALUES)
    shifted = run_workload(kind, BASE_VALUES, shift=1000)
    assert baseline == shifted


#: The fields of a dictionary's observable shape whose size is its entry
#: count |D|: the head (|D| + 1 offsets, as an array and as a list) and the
#: tail (|D| PAE blobs).
_ENTRY_SIZED_FIELDS = ("offsets", "_offsets_list", "tail")


def _has_fields(shape, type_name: str) -> bool:
    """Is ``shape`` an object shape of ``type_name`` with its fields (not a
    depth or cycle marker)?"""
    return len(shape) == 2 and shape[0] == type_name and isinstance(shape[1], tuple)


def mask_entry_counts(shape, entry_counts: list[int]):
    """``shape`` with every field sized by a dictionary's |D| masked.

    Each dictionary's |D| is appended to ``entry_counts``. The head fields
    collapse to a marker; the tail keeps its per-entry byte size, so two
    masked shapes are equal only if the entries themselves are the same
    size and everything not sized by |D| is identical. A search result
    listing as many ValueIDs as a dictionary of the same event has
    entries (a full-covering query over an unsorted dictionary matches
    every entry) is sized by |D| too.
    """
    if not isinstance(shape, tuple):
        return shape
    if _has_fields(shape, "EncryptedDictionary"):
        fields = dict(shape[1])
        entries = fields["offsets"][2][0] - 1  # ("array", 8, (|D| + 1,))
        entry_counts.append(entries)
        _, tail_bytes = fields["tail"]
        assert tail_bytes % entries == 0, (tail_bytes, entries)
        masked = []
        for name, value in shape[1]:
            if name == "tail":
                value = ("bytes per entry", tail_bytes // entries)
            elif name in _ENTRY_SIZED_FIELDS:
                value = ("sized by |D|",)
            else:
                value = mask_entry_counts(value, entry_counts)
            masked.append((name, value))
        return (shape[0], tuple(masked))
    if _has_fields(shape, "SearchResult"):
        return (
            shape[0],
            tuple(
                (name, ("every ValueID",))
                if name == "vids" and value[1] in entry_counts
                else (name, mask_entry_counts(value, entry_counts))
                for name, value in shape[1]
            ),
        )
    return tuple(mask_entry_counts(value, entry_counts) for value in shape)


def masked_trace(trace) -> tuple[list, list[int]]:
    """The trace with |D|-sized fields masked, and every |D| it showed.

    Arguments precede the result in an ecall's shape, so a result is
    masked against the dictionaries its own ecall searched.
    """
    events, all_counts = [], []
    for event in trace:
        entry_counts: list[int] = []
        shape = mask_entry_counts(event.shape, entry_counts)
        events.append((event.channel, event.name, shape))
        all_counts.extend(entry_counts)
    return events, all_counts


def smoothing_entry_bounds(values: list[int], bsmax: int) -> tuple[int, int]:
    """Algorithm 5's range for |D|: every bucket holds 1..bsmax rows."""
    occurrences: dict[int, int] = {}
    for value in values:
        occurrences[value] = occurrences.get(value, 0) + 1
    fewest = sum(-(-count // bsmax) for count in occurrences.values())
    return fewest, len(values)


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_cardinality_pair_leaks_exactly_per_kind(kind):
    """Distinct-value count leaks exactly as Table 3 declares.

    The full-covering query matches all 24 rows in both runs and the
    empty query none, so result sets cannot explain a divergence — only
    the dictionary itself can.

    - *revealing* (ED1-3): |D| equals the distinct count — the moderate
      pair (12 vs 8 distinct) must produce different traces;
    - *smoothing* (ED4-6): leakage is *bounded*, not exact — |D| is a
      random bucket count, so the pair may or may not land on the same
      |D| depending on the DRBG stream. What holds for every stream: with
      the fields sized by |D| masked the traces are identical (nothing
      but the entry count may differ), and each |D| lies in Algorithm 5's
      bounds, sum(ceil(occ / bsmax)) <= |D| <= rows;
    - *hiding* (ED7-9): |D| is the row count by construction — identical
      traces, no frequency leak.
    """
    baseline = run_workload(kind, BASE_VALUES, selective=False)
    fewer = run_workload(kind, FEWER_DISTINCT, selective=False)
    if kind in ("ED1", "ED2", "ED3"):
        assert baseline != fewer
    elif kind in ("ED4", "ED5", "ED6"):
        baseline_events, baseline_entries = masked_trace(baseline)
        fewer_events, fewer_entries = masked_trace(fewer)
        assert baseline_events == fewer_events
        assert baseline_entries and fewer_entries
        for values, entries in (
            (BASE_VALUES, baseline_entries),
            (FEWER_DISTINCT, fewer_entries),
        ):
            low, high = smoothing_entry_bounds(values, bsmax=4)
            assert all(low <= count <= high for count in entries), entries
    else:
        assert baseline == fewer


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_extreme_cardinality_pair_separates_bounded_from_none(kind):
    """Smoothing is bounded leakage, not none: the extreme pair shows it.

    One value x 24 rows vs. 24 distinct values: every non-hiding kind's
    dictionary must distinguish the pair (for smoothing, |D| = N on the
    all-distinct side but strictly fewer entries on the all-same side);
    the hiding kinds must not — their dictionaries are N entries either
    way.
    """
    same = run_workload(kind, ONE_VALUE, selective=False)
    distinct = run_workload(kind, ALL_DISTINCT, selective=False)
    if kind in ("ED7", "ED8", "ED9"):
        assert same == distinct
    else:
        assert same != distinct


def run_groupby(distinct_groups: int):
    """Pushdown GROUP BY with N distinct group keys; return the trace.

    Both columns are ED1: the router only pushes fully-encrypted
    aggregates, and the cost gate only routes to the enclave when the
    dictionary bounds the distinct count well below the row count, which
    is exactly the revealing/smoothing regime. What the *response*
    reveals about the group count is the padding contract under test;
    the dictionary's own (declared) leakage is not.
    """
    with capture_trace() as trace:
        system = EncDBDBSystem.create(seed=7)
        system.proxy.enable_pushdown()
        system.execute("CREATE TABLE g (k ED1 INTEGER, v ED1 INTEGER)")
        system.bulk_load(
            "g",
            {
                "k": [i % distinct_groups for i in range(96)],
                "v": [i % 5 for i in range(96)],
            },
        )
        system.query("SELECT k, COUNT(*), SUM(v) FROM g GROUP BY k")
    return trace


def aggregate_response_shapes(trace):
    """The provider-observable *response* shapes of the pushdown path."""
    shapes = [
        event.shape[2]
        for event in trace
        if event.channel == "ecall" and event.name == "aggregate_groups"
    ]
    assert shapes, "workload never reached the aggregate_groups ecall"
    return shapes


def test_groupby_counts_inside_one_padding_bucket_are_identical():
    """3 and 4 groups both pad to 4 uniform frames: indistinguishable."""
    assert aggregate_response_shapes(
        run_groupby(3)
    ) == aggregate_response_shapes(run_groupby(4))


def test_groupby_counts_across_padding_buckets_differ():
    """4 -> 4 frames but 5 -> 8: the declared power-of-two residual."""
    assert aggregate_response_shapes(
        run_groupby(4)
    ) != aggregate_response_shapes(run_groupby(5))


# ----------------------------------------------------------------------
# The write path: one ``reseal_delta`` crossing per encrypted column
# ----------------------------------------------------------------------


def run_insert(rows: int, *, shift: int = 0):
    """One multi-row INSERT into two encrypted columns; its ecall events."""
    system = EncDBDBSystem.create(seed=7)
    system.execute("CREATE TABLE w (k ED5 INTEGER BSMAX 4, d ED1 INTEGER, tag INTEGER)")
    values = ", ".join(
        f"({100 + 7 * i + shift}, {i % 3 + shift}, {i})" for i in range(rows)
    )
    with capture_trace() as trace:
        system.execute(f"INSERT INTO w VALUES {values}")
    events = [event for event in trace if event.channel == "ecall"]
    assert [event.name for event in events] == ["reseal_delta", "reseal_delta"]
    return events


def test_inserts_of_shifted_values_are_trace_identical():
    """Same row count, every value displaced: the provider sees the same
    two crossings with the same blob counts and sizes."""
    assert run_insert(5) == run_insert(5, shift=1000)


def test_insert_row_count_shows_only_as_list_length():
    """The row count of a statement is already wire-visible; it is the only
    thing that separates a 5-row crossing from an 8-row one."""
    for small, large in zip(run_insert(5), run_insert(8)):
        (_, _, (table_s, column_s, blobs_s)), kwargs_s, result_s = small.shape
        (_, _, (table_l, column_l, blobs_l)), kwargs_l, result_l = large.shape
        assert (table_s, column_s, kwargs_s) == (table_l, column_l, kwargs_l)
        assert blobs_s == result_s and blobs_l == result_l
        assert (blobs_s[1], blobs_l[1]) == (5, 8)
        assert len(set(blobs_s[2])) == 1 and set(blobs_s[2]) == set(blobs_l[2])


@pytest.mark.parametrize(
    "kwargs",
    [{"to_epoch": 1}, {"from_epoch": 0, "to_epoch": 1}],
    ids=["insert", "key-flip"],
)
def test_reseal_size_vector_invariant_fires(kwargs):
    """A reseal that changes any blob's size — for an INSERT's crossing as
    for a key flip — is a shaping violation; a size-preserving one is not."""
    from repro.analysis.leakoracle import LeakOracle

    oracle = LeakOracle()  # not installed: the invariant is checked directly
    blobs = [bytes(40), bytes(44)]
    oracle._check_ecall("reseal_delta", ("w", "k", blobs), kwargs, [bytes(40), bytes(44)])
    assert oracle.report.drain() == []
    oracle._check_ecall("reseal_delta", ("w", "k", blobs), kwargs, [bytes(40), bytes(45)])
    assert [v.invariant for v in oracle.report.drain()] == ["reseal-delta-sizes"]


def test_padded_ranges_invariant_checks_every_search_result():
    """``dict_search`` answers a list of requests: every range-bearing
    result in it must carry exactly two ranges, not just the first."""
    from repro.analysis.leakoracle import LeakOracle
    from repro.encdict.search import DUMMY_RANGE, SearchResult

    oracle = LeakOracle()  # not installed: the invariant is checked directly
    padded = SearchResult(ranges=((0, 3), DUMMY_RANGE))
    oracle._check_ecall("dict_search", ([],), {}, [padded, padded])
    assert oracle.report.drain() == []
    unpadded = SearchResult(ranges=((0, 3), (5, 6), (8, 9)))
    oracle._check_ecall("dict_search", ([],), {}, [padded, unpadded])
    assert [v.invariant for v in oracle.report.drain()] == ["padded-ranges"]


# ----------------------------------------------------------------------
# MERGE: value-shift pair
# ----------------------------------------------------------------------


def run_merge(kind: str, *, shift: int = 0):
    """Two MERGEs over three 8-row partitions; their trace.

    The first merge rebuilds partition 1 (two deletes) and absorbs two
    delta rows into partition 2 (two deletes, so they fit); the second
    merge finds the last partition full and adds a tail partition.
    """
    system = EncDBDBSystem.create(seed=7)
    system.execute(f"CREATE TABLE t (v {kind} INTEGER BSMAX 4, n INTEGER)")
    system.bulk_load(
        "t",
        {
            "v": [value + shift for value in BASE_VALUES],
            "n": list(range(len(BASE_VALUES))),
        },
        partition_rows=8,
    )
    with capture_trace() as trace:
        system.execute("DELETE FROM t WHERE n = 9 OR n = 12")
        system.execute("DELETE FROM t WHERE n = 17 OR n = 22")
        system.execute(f"INSERT INTO t VALUES ({115 + shift}, 100), ({160 + shift}, 101)")
        system.merge("t")
        system.execute(
            f"INSERT INTO t VALUES ({120 + shift}, 102), ({120 + shift}, 103), "
            f"({175 + shift}, 104)"
        )
        system.merge("t")
        system.query(f"SELECT n FROM t WHERE v >= {100 + shift} AND v <= {200 + shift}")
    table = system.server.catalog.table("t")
    assert table.column("v").partition_lengths == [8, 6, 8, 3]
    return trace


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_merge_value_shift_pair_is_trace_identical(kind):
    """A MERGE leaks no value magnitudes: shifted data, same trace."""
    baseline = run_merge(kind)
    # Partitions 1 and 2 in the first merge, the tail in the second.
    assert sum(event.name == "rebuild_for_merge" for event in baseline) == 3
    assert baseline == run_merge(kind, shift=1000)
