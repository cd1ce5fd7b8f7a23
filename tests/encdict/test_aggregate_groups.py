"""Enclave-level tests of the ``aggregate_groups`` ecall (PR 9).

Covers the ordinal-space aggregation contract end to end at the enclave
boundary: exact COUNT/SUM/AVG/MIN/MAX states per group, first-occurrence
group order, plaintext-level merging of duplicate dictionary entries
(ED4/ED7) and cross-segment groups, one decryption per *distinct* entry,
the padded-frame shape the untrusted side observes (uniform byte
length, power-of-two count, dummy flags only visible after decryption),
and the refusal of a store that is not of the queried table and column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore.types import IntegerType, VarcharType
from repro.crypto.kdf import derive_column_key
from repro.encdict.builder import encdb_build
from repro.encdict.enclave_app import (
    AGGREGATE_KEY_COLUMN,
    decode_group_frame,
    padded_frame_count,
)
from repro.encdict.options import ALL_KINDS, ED1, ED4
from repro.exceptions import EnclaveSecurityError, QueryError

from tests.encdict.test_enclave_app import _provisioned_host

GROUPS = ["b", "a", "c", "b", "a", "b", "c", "a", "a", "b"]
MEASURES = [4, 7, 1, 9, 2, 5, 8, 3, 6, 10]

SPECS = (
    ("COUNT", None, "count(*)"),
    ("SUM", "m", "sum(m)"),
    ("AVG", "m", "avg(m)"),
    ("MIN", "m", "min(m)"),
    ("MAX", "m", "max(m)"),
)


def _column_build(
    master_key, pae, rng, values, kind, column, value_type, bsmax=3, table="t1"
):
    return encdb_build(
        values,
        kind,
        value_type=value_type,
        key=derive_column_key(master_key, table, column),
        pae=pae,
        rng=rng.fork(f"agg-{column}-{kind.name}"),
        bsmax=bsmax,
        table_name=table,
        column_name=column,
    )


def _segment(group_build, measure_build, record_ids):
    rids = np.asarray(record_ids, dtype=np.int64)
    return {
        "group": (group_build.dictionary, group_build.attribute_vector[rids]),
        "rows": len(rids),
        "measures": {
            "m": (measure_build.dictionary, measure_build.attribute_vector[rids])
        },
    }


def _open_frames(frames, master_key, pae):
    key = derive_column_key(master_key, "t1", AGGREGATE_KEY_COLUMN)
    return [decode_group_frame(pae.decrypt(key, frame)) for frame in frames]


def _reference(groups, measures):
    """(group -> (count, sum, min, max)) in first-occurrence order."""
    out: dict[str, list[int]] = {}
    for group, measure in zip(groups, measures):
        state = out.setdefault(group, [0, 0, measure, measure])
        state[0] += 1
        state[1] += measure
        state[2] = min(state[2], measure)
        state[3] = max(state[3], measure)
    return out


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
def test_grouped_aggregates_every_kind(kind):
    host, master_key, pae, rng = _provisioned_host(b"agg-kinds")
    group_build = _column_build(
        master_key, pae, rng, GROUPS, kind, "g", VarcharType(4)
    )
    measure_build = _column_build(
        master_key, pae, rng, MEASURES, kind, "m", IntegerType()
    )
    frames = host.ecall(
        "aggregate_groups",
        "t1",
        SPECS,
        [_segment(group_build, measure_build, range(len(GROUPS)))],
        group_column="g",
    )
    opened = [
        frame for frame in _open_frames(frames, master_key, pae) if not frame[0]
    ]
    expected = _reference(GROUPS, MEASURES)
    value_type = VarcharType(4)
    assert [value_type.from_bytes(key) for _d, key, _s in opened] == list(expected)
    for _dummy, key_bytes, states in opened:
        count, total, minimum, maximum = expected[value_type.from_bytes(key_bytes)]
        assert states == [
            (True, count, 0),
            (True, total, 0),
            (True, total, count),  # AVG ships as a (sum, count) pair
            (True, minimum, 0),
            (True, maximum, 0),
        ], kind.name


def test_cross_segment_groups_merge_in_record_order():
    """Groups recurring across segments (partitions/delta) fold into one
    frame, keyed by plaintext, ordered by global first occurrence."""
    host, master_key, pae, rng = _provisioned_host(b"agg-segments")
    group_build = _column_build(
        master_key, pae, rng, GROUPS, ED4, "g", VarcharType(4)
    )
    measure_build = _column_build(
        master_key, pae, rng, MEASURES, ED1, "m", IntegerType()
    )
    split = [range(0, 4), range(4, 10)]
    frames = host.ecall(
        "aggregate_groups",
        "t1",
        (("COUNT", None, "count(*)"), ("SUM", "m", "sum(m)")),
        [_segment(group_build, measure_build, rids) for rids in split],
        group_column="g",
    )
    opened = [
        frame for frame in _open_frames(frames, master_key, pae) if not frame[0]
    ]
    expected = _reference(GROUPS, MEASURES)
    value_type = VarcharType(4)
    assert [value_type.from_bytes(key) for _d, key, _s in opened] == list(expected)
    for _dummy, key_bytes, states in opened:
        count, total, _minimum, _maximum = expected[
            value_type.from_bytes(key_bytes)
        ]
        assert states == [(True, count, 0), (True, total, 0)]


def test_frames_are_uniform_and_padded_to_power_of_two():
    host, master_key, pae, rng = _provisioned_host(b"agg-shape")
    groups = ["a", "b", "c", "d", "e", "a"]  # 5 distinct -> 8 frames
    measures = [1, 2, 3, 4, 5, 6]
    group_build = _column_build(
        master_key, pae, rng, groups, ED1, "g", VarcharType(4)
    )
    measure_build = _column_build(
        master_key, pae, rng, measures, ED1, "m", IntegerType()
    )
    frames = host.ecall(
        "aggregate_groups",
        "t1",
        (("COUNT", None, "count(*)"),),
        [_segment(group_build, measure_build, range(len(groups)))],
        group_column="g",
    )
    assert len(frames) == padded_frame_count(5) == 8
    assert len({len(frame) for frame in frames}) == 1  # uniform ciphertexts
    opened = _open_frames(frames, master_key, pae)
    assert [dummy for dummy, _key, _states in opened] == [False] * 5 + [True] * 3


def test_empty_global_yields_count_zero_row():
    host, master_key, pae, rng = _provisioned_host(b"agg-empty")
    frames = host.ecall(
        "aggregate_groups",
        "t1",
        (("COUNT", None, "count(*)"), ("SUM", "m", "sum(m)")),
        [{"group": None, "rows": 0, "measures": {}}],
    )
    opened = _open_frames(frames, master_key, pae)
    assert len(opened) == 1
    dummy, key_bytes, states = opened[0]
    assert not dummy and key_bytes == b""
    assert states == [(True, 0, 0), (False, 0, 0)]  # COUNT 0, SUM NULL


def test_empty_grouped_yields_only_dummies():
    host, master_key, pae, rng = _provisioned_host(b"agg-empty-group")
    frames = host.ecall(
        "aggregate_groups",
        "t1",
        (("COUNT", None, "count(*)"),),
        [{"group": None, "rows": 0, "measures": {}}],
        group_column="g",
    )
    opened = _open_frames(frames, master_key, pae)
    assert len(opened) == 1 and opened[0][0] is True


def test_decrypts_once_per_distinct_entry():
    """1 000 rows over 4 distinct groups and 5 distinct measures must not
    decrypt per row — that is the whole point of ordinal-space grouping."""
    host, master_key, pae, rng = _provisioned_host(b"agg-distinct")
    rows = 1000
    groups = [f"g{i % 4}" for i in range(rows)]
    measures = [(i * 3) % 5 for i in range(rows)]
    group_build = _column_build(
        master_key, pae, rng, groups, ED1, "g", VarcharType(4)
    )
    measure_build = _column_build(
        master_key, pae, rng, measures, ED1, "m", IntegerType()
    )
    before = host.cost_model.snapshot()["decryptions"]
    host.ecall(
        "aggregate_groups",
        "t1",
        (("SUM", "m", "sum(m)"),),
        [_segment(group_build, measure_build, range(rows))],
        group_column="g",
    )
    decryptions = host.cost_model.snapshot()["decryptions"] - before
    assert decryptions <= 4 + 5


def test_rejects_malformed_specs():
    host, master_key, pae, rng = _provisioned_host(b"agg-bad")
    segment = {"group": None, "rows": 1, "measures": {}}
    with pytest.raises(QueryError):
        host.ecall("aggregate_groups", "t1", (), [segment])
    with pytest.raises(QueryError):
        host.ecall(
            "aggregate_groups", "t1", (("MEDIAN", "m", "median(m)"),), [segment]
        )
    with pytest.raises(QueryError):
        host.ecall("aggregate_groups", "t1", (("SUM", None, "sum"),), [segment])


@pytest.mark.parametrize(
    "role, table, column",
    [
        ("group", "t2", "g"),
        ("group", "t1", "h"),
        ("measure", "t2", "m"),
        ("measure", "t1", "x"),
    ],
    ids=[
        "group-foreign-table",
        "group-foreign-column",
        "measure-foreign-table",
        "measure-foreign-column",
    ],
)
def test_refuses_a_store_of_another_table_or_column(role, table, column):
    """The frames are sealed under t1's aggregate key, so a host must not
    answer t1's aggregate from another table's or column's store: the store
    is refused before anything is opened."""
    host, master_key, pae, rng = _provisioned_host(b"agg-binding")
    group_table, group_column = (table, column) if role == "group" else ("t1", "g")
    measure_table, measure_column = (table, column) if role == "measure" else ("t1", "m")
    group_build = _column_build(
        master_key, pae, rng, GROUPS, ED1, group_column, VarcharType(4), table=group_table
    )
    measure_build = _column_build(
        master_key, pae, rng, MEASURES, ED1, measure_column, IntegerType(), table=measure_table
    )
    before = host.cost_model.snapshot()["decryptions"]
    with pytest.raises(EnclaveSecurityError):
        host.ecall(
            "aggregate_groups",
            "t1",
            (("SUM", "m", "sum(m)"),),
            [_segment(group_build, measure_build, range(len(GROUPS)))],
            group_column="g",
        )
    assert host.cost_model.snapshot()["decryptions"] == before
