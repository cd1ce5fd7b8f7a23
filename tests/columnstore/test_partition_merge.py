"""Incremental merge over a partitioned main store.

The merge must only rebuild partitions whose validity bits or delta rows
changed (``rebuild_for_merge`` ecall counter asserted), drop partitions
that end up empty, and keep RecordID alignment across all columns of the
table intact. A rebuild opens each surviving (store, ValueID) once and
stays byte-identical across the change of how its inputs are gathered.
"""

from __future__ import annotations

from repro import EncDBDBSystem


def _partitioned_system(rows: int = 24, partition_rows: int = 8, seed: int = 66):
    system = EncDBDBSystem.create(seed=seed)
    system.execute("CREATE TABLE t (v ED2 VARCHAR(10), n INTEGER)")
    system.bulk_load(
        "t",
        {"v": [f"v{i:04d}" for i in range(rows)], "n": list(range(rows))},
        partition_rows=partition_rows,
    )
    return system


def _rebuild_ecalls(system) -> int:
    return system.server.cost_snapshot()["ecalls_by_name"].get(
        "rebuild_for_merge", 0
    )


def _stats(system):
    return system.server.executor.last_merge_stats


def test_empty_delta_merge_rebuilds_nothing():
    system = _partitioned_system()
    before = _rebuild_ecalls(system)
    system.merge("t")
    stats = _stats(system)
    assert stats.partitions_total == 3
    assert stats.partitions_kept == 3
    assert stats.partitions_rebuilt == 0
    assert stats.partitions_dropped == 0
    assert stats.tail_partitions_added == 0
    assert stats.delta_rows_merged == 0
    assert _rebuild_ecalls(system) == before  # not a single enclave rebuild
    assert system.query("SELECT COUNT(*) FROM t").scalar() == 24


def test_delete_only_merge_rebuilds_only_dirty_partition():
    system = _partitioned_system()
    # Rows 8..9 live in partition 1 of [0..7][8..15][16..23].
    system.execute("DELETE FROM t WHERE n BETWEEN 8 AND 9")
    before = _rebuild_ecalls(system)
    system.merge("t")
    stats = _stats(system)
    assert stats.partitions_rebuilt == 1
    assert stats.partitions_kept == 2
    assert stats.partitions_dropped == 0
    # One rebuilt partition slot x one encrypted column = one ecall.
    assert _rebuild_ecalls(system) - before == 1
    assert system.query("SELECT COUNT(*) FROM t").scalar() == 22
    assert system.query("SELECT n FROM t WHERE v = 'v0010'").rows == [(10,)]
    assert system.query("SELECT n FROM t WHERE v = 'v0008'").rows == []


def test_merge_drops_emptied_partition():
    system = _partitioned_system()
    system.execute("DELETE FROM t WHERE n BETWEEN 8 AND 15")  # all of partition 1
    before = _rebuild_ecalls(system)
    system.merge("t")
    stats = _stats(system)
    assert stats.partitions_dropped == 1
    assert stats.partitions_rebuilt == 0
    assert stats.partitions_kept == 2
    assert _rebuild_ecalls(system) == before
    table = system.server.catalog.table("t")
    assert table.columns["v"].partition_lengths == [8, 8]
    assert system.query("SELECT COUNT(*) FROM t").scalar() == 16
    assert system.query("SELECT n FROM t WHERE v = 'v0016'").rows == [(16,)]


def test_record_id_alignment_survives_merges():
    system = _partitioned_system()
    reference = sorted(system.query("SELECT v, n FROM t").rows)
    system.merge("t")
    system.merge("t")  # idempotent on a clean table
    assert sorted(system.query("SELECT v, n FROM t").rows) == reference

    # A delete-only merge keeps every surviving (v, n) pair aligned.
    system.execute("DELETE FROM t WHERE n BETWEEN 8 AND 9")
    system.merge("t")
    survivors = [(v, n) for v, n in reference if n not in (8, 9)]
    assert sorted(system.query("SELECT v, n FROM t").rows) == survivors
    # Clean partitions were kept verbatim: rows before the dirty partition
    # retain their RecordIDs, so per-row lookups still line up.
    for n in (0, 7, 16, 23):
        assert system.query(f"SELECT v FROM t WHERE n = {n}").rows == [
            (f"v{n:04d}",)
        ]


def test_delta_absorbed_into_last_partition_when_it_fits():
    system = _partitioned_system()
    system.execute("DELETE FROM t WHERE n BETWEEN 20 AND 23")  # last partition: 4 live
    system.execute("INSERT INTO t VALUES ('x1', 100), ('x2', 101)")
    system.merge("t")
    stats = _stats(system)
    assert stats.tail_partitions_added == 0
    assert stats.partitions_total == 3
    assert stats.delta_rows_merged == 2
    table = system.server.catalog.table("t")
    assert table.columns["v"].partition_lengths == [8, 8, 6]
    assert system.query("SELECT n FROM t WHERE v = 'x2'").rows == [(101,)]


def test_delta_overflow_creates_tail_partition():
    system = _partitioned_system()
    rows = ", ".join(f"('y{i}', {200 + i})" for i in range(4))
    system.execute(f"INSERT INTO t VALUES {rows}")
    # Last partition is full (8 rows), so 8 + 4 > 8: fresh tail partition.
    system.merge("t")
    stats = _stats(system)
    assert stats.tail_partitions_added == 1
    assert stats.partitions_kept == 3  # untouched main partitions stay as-is
    table = system.server.catalog.table("t")
    assert table.columns["v"].partition_lengths == [8, 8, 8, 4]
    assert system.query("SELECT COUNT(*) FROM t").scalar() == 28
    assert system.query("SELECT n FROM t WHERE v = 'y3'").rows == [(203,)]


def test_merge_cost_scales_with_dirty_partitions():
    wide = EncDBDBSystem.create(seed=67)
    wide.execute("CREATE TABLE w (a ED1 INTEGER, b ED2 VARCHAR(10))")
    wide.bulk_load(
        "w",
        {"a": list(range(24)), "b": [f"b{i:04d}" for i in range(24)]},
        partition_rows=8,
    )
    wide.execute("DELETE FROM w WHERE a = 20")  # dirty: partition 2 only
    before = _rebuild_ecalls(wide)
    wide.merge("w")
    # One dirty slot x two encrypted columns.
    assert _rebuild_ecalls(wide) - before == 2
    assert _stats(wide).partitions_rebuilt == 1


# ----------------------------------------------------------------------
# Bit identity and decryption count of the rebuild
# ----------------------------------------------------------------------
_KINDS = [f"ED{number}" for number in range(1, 10)]

#: SHA-256 of the file saved after :func:`_merge_rounds`. A merge that
#: opens the same values under the same DRBG streams must keep every rebuilt
#: partition, and thus the whole file, byte-identical. It changes only when
#: the DRBG stream a build or the merge shuffle reads changes (CHANGES.md
#: names each old and new digest); the shuffle's network is checked
#: against the scalar reference network in tests/sgx/test_oblivious.py.
_NINE_KINDS_MERGED_SHA256 = (
    "18ea47b7b2509af613451e4a30565ddd99b02b0c67bbff34a7f27dfed3001e79"
)


def _nine_kinds_system():
    system = EncDBDBSystem.create(seed=41)
    columns = ", ".join(
        f"c{number} {kind} {'VARCHAR(6)' if number % 2 == 0 else 'INTEGER'}"
        for number, kind in enumerate(_KINDS, start=1)
    )
    system.execute(f"CREATE TABLE t ({columns}, n INTEGER)")
    rows = 18
    data = {"n": list(range(rows))}
    for number in range(1, 10):
        values = [(i // 2 + number) % 3 for i in range(rows)]
        data[f"c{number}"] = (
            [f"s{value}" for value in values] if number % 2 == 0 else values
        )
    system.bulk_load("t", data, partition_rows=5)
    return system


def _insert(system, first: int, count: int) -> None:
    rows = []
    for n in range(first, first + count):
        values = [
            f"'s{(n + number) % 4}'" if number % 2 == 0 else str((n + number) % 4)
            for number in range(1, 10)
        ]
        rows.append(f"({', '.join(values)}, {n})")
    system.execute(f"INSERT INTO t VALUES {', '.join(rows)}")


def _merge_rounds(system):
    """Three INSERT/DELETE/MERGE rounds over partitions [5, 5, 5, 3]: a
    delete inside a partition, a delta absorbed into the last partition, an
    emptied partition dropped and delta overflow into tail partitions."""
    _insert(system, 100, 2)
    system.execute("DELETE FROM t WHERE n = 6")
    system.merge("t")
    _insert(system, 200, 7)
    system.execute("DELETE FROM t WHERE n BETWEEN 10 AND 14")
    system.execute("DELETE FROM t WHERE n = 1")
    system.merge("t")
    _insert(system, 300, 1)
    system.execute("DELETE FROM t WHERE n = 205")
    system.merge("t")


def test_merged_nine_kinds_save_is_bit_identical(tmp_path):
    import hashlib

    system = _nine_kinds_system()
    _merge_rounds(system)
    path = tmp_path / "merged.db"
    system.save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _NINE_KINDS_MERGED_SHA256


def _distinct_survivor_entries(table) -> int:
    """Distinct (store, ValueID) pairs among the rows the next merge
    rebuilds, summed over the encrypted columns: the surviving rows of every
    dirty main partition and of the last one (which absorbs the delta here),
    plus every valid delta row (a delta row is its own ValueID)."""
    import numpy as np

    valid = np.asarray(table.validity, dtype=bool)
    total = 0
    for name in table.column_names:
        column = table.column(name)
        if not column.spec.is_encrypted:
            continue
        start = 0
        for index, build in enumerate(column.partition_builds):
            length = len(build.attribute_vector)
            keep = valid[start : start + length]
            if not keep.all() or index == len(column.partition_builds) - 1:
                total += len(np.unique(build.attribute_vector[keep]))
            start += length
        total += int(valid[start:].sum())
    return total


def test_merge_decrypts_each_surviving_entry_once():
    system = _nine_kinds_system()
    _insert(system, 100, 2)
    system.execute("DELETE FROM t WHERE n IN (1, 6, 7)")
    table = system.server.catalog.table("t")
    expected = _distinct_survivor_entries(table)
    rows = (4 + 3 + 3 + 2) * 9  # survivors of partitions 0, 1, 3 + delta
    assert expected < rows  # duplicate survivors: fewer entries than rows
    before = system.server.cost_snapshot()["decryptions"]
    system.merge("t")
    assert system.server.cost_snapshot()["decryptions"] - before == expected


def test_plain_values_at_matches_value_at():
    """The merge's plaintext gather equals a per-row ``value_at`` walk over
    main partitions and delta alike."""
    import numpy as np

    from repro.columnstore.column import PlainStoredColumn
    from repro.columnstore.types import ColumnSpec, IntegerType

    column = PlainStoredColumn(
        ColumnSpec("n", IntegerType()), [(i * 7) % 11 for i in range(30)], partition_rows=8
    )
    column.delta_values = [100, 101, 102]
    for record_ids in ([], [0], [7, 8], [3, 9, 17, 24, 29, 30, 32], list(range(33))):
        rows = np.asarray(record_ids, dtype=np.int64)
        assert column.values_at(rows) == [column.value_at(r) for r in record_ids]


def test_ordinal_segment_lists_build_the_delta_dictionary_once():
    """A merge's row sets are segmented from one snapshot: each list equals
    that set's ``ordinal_segments``, and every list reaching into the delta
    shares one delta dictionary instead of rebuilding it per partition."""
    import numpy as np

    system = _nine_kinds_system()
    _insert(system, 100, 3)
    column = system.server.catalog.table("t").column("c1")
    row_sets = [np.array([0, 6, 18]), np.array([2, 3]), np.array([12, 19, 20])]
    lists = column.ordinal_segment_lists(row_sets)
    for segments, rows in zip(lists, row_sets):
        single = column.ordinal_segments(rows)
        assert [len(vids) for _, vids in segments] == [len(v) for _, v in single]
        for (dictionary, vids), (expected, expected_vids) in zip(segments, single):
            assert list(dictionary.entries()) == list(expected.entries())
            assert vids.tolist() == expected_vids.tolist()
    delta_dictionaries = [lists[0][-1][0], lists[2][-1][0]]
    assert delta_dictionaries[0] is delta_dictionaries[1]
    assert len(lists[1]) == 1  # rows 2 and 3 never touch the delta
