"""Encrypted result columns ship an entry table plus a per-row index.

The result renderer returns each referenced dictionary entry once
(``data``) and one int32 per row (``index``). That frame must be a lossless
re-encoding of the per-row blobs the store holds: for every kind, partition
layout and store state, ``[data[i] for i in index]`` equals the blobs of the
returned RecordIDs read straight from the partitions and the delta, every
shipped entry is referenced, and no blob is shipped twice. The dedup key is
(partition, ValueID), so the frequency-hiding kinds (ED7-9: one entry per
row) ship one entry per row. The same holds in-process, over TCP and
through a 2-shard cluster's merge; a malicious server's malformed index is
refused with a typed error.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import EncDBDBSystem
from repro.cluster import ClusterSystem
from repro.cluster.shardmap import ShardSpan
from repro.exceptions import QueryError
from repro.net.server import NetServer, ServerThread
from repro.server.dbms import EncDBDBServer
from repro.sql.result import ResultColumn, ServerResult

from tests.cluster.conftest import FAST_RETRY, live_cluster

KINDS = [f"ED{i}" for i in range(1, 10)]
HIDING = {"ED7", "ED8", "ED9"}
ROWS = 36
SMALL_PARTITIONS = 8
SEED = 41
VALUES = [((i * 7) % 11) + 1 for i in range(ROWS)]  # 11 uniques, repeated
INSERTED = [3, 12, 3, 5, 12]  # repeats inside the delta too
COLUMNS = [f"c{i}" for i in range(1, 10)]
QUERIES = (
    f"SELECT {', '.join(COLUMNS)} FROM t",
    f"SELECT {', '.join(COLUMNS)} FROM t WHERE tag <= 3",
)


def _create(system, partition_rows: int | None) -> None:
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs}, tag INTEGER)")
    columns = {name: list(VALUES) for name in COLUMNS}
    columns["tag"] = [i % 7 for i in range(ROWS)]
    if partition_rows is None:
        system.bulk_load("t", columns)
    else:
        system.bulk_load("t", columns, partition_rows=partition_rows)


def _advance(system, state: str) -> None:
    """Move the table from the previous state into ``state``."""
    if state == "delta":
        rows = ", ".join(
            "(" + ", ".join([str(value)] * 9) + f", {i % 7})"
            for i, value in enumerate(INSERTED)
        )
        system.execute(f"INSERT INTO t VALUES {rows}")
    elif state == "merged":
        system.merge("t")


def _row_blobs(catalog) -> dict[str, list[bytes]]:
    """Per column, the blob of every RecordID: main partitions, then delta."""
    table = catalog.table("t")
    blobs = {}
    for name in COLUMNS:
        column = table.column(name)
        rows = [
            build.dictionary.entry(int(vid))
            for build in column.partition_builds
            for vid in build.attribute_vector
        ]
        blobs[name] = rows + list(column.delta_blobs)
    return blobs


@contextlib.contextmanager
def _capture(owner, method: str):
    """Record every return value of ``owner.<method>`` while active."""
    original = getattr(owner, method)
    calls: list = []

    def recording(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append((args, value))
        return value

    setattr(owner, method, recording)
    try:
        yield calls
    finally:
        delattr(owner, method)


def _assert_frame(column: ResultColumn, expected: list[bytes], kind: str) -> None:
    assert column.encrypted
    assert isinstance(column.index, np.ndarray)
    assert column.index.dtype == np.int32
    assert [column.data[i] for i in column.index.tolist()] == expected
    # No entry twice, none unreferenced.
    assert len(set(column.data)) == len(column.data)
    assert set(column.data) == set(expected)
    if kind in HIDING:
        assert len(column.data) == len(expected)


def _check_select(system, sql: str, reference) -> None:
    """Run ``sql`` through the proxy; compare what the proxy received."""
    with _capture(system.proxy._server, "execute_select") as calls:
        result = system.query(sql)
    ((_, received),) = calls
    assert len(result) == received.row_count
    blobs = reference()
    for name, kind in zip(COLUMNS, KINDS):
        expected = [blobs[name][rid] for rid in received.record_ids.tolist()]
        _assert_frame(received.columns[name], expected, kind)


@pytest.mark.parametrize("partition_rows", [None, SMALL_PARTITIONS])
def test_frame_reencodes_per_row_blobs_in_process(partition_rows):
    system = EncDBDBSystem.create(seed=SEED)
    _create(system, partition_rows)
    for state in ("main", "delta", "merged"):
        _advance(system, state)
        for sql in QUERIES:
            _check_select(
                system, sql, lambda: _row_blobs(system.server.catalog)
            )


@pytest.mark.parametrize("partition_rows", [None, SMALL_PARTITIONS])
def test_frame_reencodes_per_row_blobs_over_tcp(partition_rows):
    dbms = EncDBDBServer()
    with ServerThread(NetServer(dbms, max_sessions=4)) as handle:
        with EncDBDBSystem.connect("127.0.0.1", handle.port, seed=SEED) as system:
            _create(system, partition_rows)
            for state in ("main", "delta", "merged"):
                _advance(system, state)
                for sql in QUERIES:
                    _check_select(system, sql, lambda: _row_blobs(dbms.catalog))


@pytest.mark.parametrize("partition_rows", [ROWS, SMALL_PARTITIONS])
def test_frame_survives_two_shard_merge(partition_rows):
    """The router concatenates entry tables and offsets each shard's index:
    the merged frame decodes to the shards' own per-row blobs, in order."""
    with live_cluster(2) as handles, ClusterSystem.connect(
        handles.shard_map, seed=SEED, retry=FAST_RETRY
    ) as system:
        _create(system, partition_rows)
        router = system.proxy._server
        for state in ("main", "delta", "merged"):
            _advance(system, state)
            for sql in QUERIES:
                with _capture(router, "_merge_results") as merges:
                    _check_select(
                        system, sql, lambda: _cluster_blobs(handles, merges)
                    )


def _cluster_blobs(handles, merges) -> dict[str, dict[int, bytes]]:
    """Per column, blobs keyed by the merged (global) RecordID, read from
    each shard's own catalog at its shard-local RecordIDs."""
    ((args, merged),) = merges
    _table, spans, results = args
    blobs: dict[str, dict[int, bytes]] = {name: {} for name in COLUMNS}
    for span, result in zip(spans, results):
        dbms = handles.by_endpoint[(span.shard_id, 0)].server.dbms
        local = _row_blobs(dbms.catalog)
        for rid in result.record_ids.tolist():
            for name in COLUMNS:
                blobs[name][rid + span.row_base] = local[name][rid]
    assert set(merged.record_ids.tolist()) == set(blobs[COLUMNS[0]])
    return blobs


# ----------------------------------------------------------------------
# A malicious server's index
# ----------------------------------------------------------------------
def _negative(index):
    return np.concatenate([[-1], index[1:]]).astype(np.int32)


def _past_end(index, entries):
    return np.concatenate([[entries], index[1:]]).astype(np.int32)


BAD_INDEXES = {
    "negative": lambda index, entries: _negative(index),
    "past-end": _past_end,
    "short": lambda index, entries: index[:-1],
    "long": lambda index, entries: np.concatenate([index, index[:1]]),
    "float": lambda index, entries: index.astype(np.float64),
    "bool": lambda index, entries: np.ones(len(index), dtype=bool),
    "2-d": lambda index, entries: index.reshape(1, -1),
    "list": lambda index, entries: index.tolist(),
    "missing": lambda index, entries: None,
}


@pytest.fixture(scope="module")
def small_system():
    system = EncDBDBSystem.create(seed=SEED)
    system.execute("CREATE TABLE s (v ED1 INTEGER, w ED7 INTEGER)")
    system.bulk_load("s", {"v": [1, 2, 1, 3], "w": [5, 6, 5, 7]})
    return system


@pytest.mark.parametrize("bad", sorted(BAD_INDEXES))
@pytest.mark.parametrize("name", ["v", "w"])
def test_malformed_index_is_a_typed_error(small_system, monkeypatch, bad, name):
    original = small_system.server.execute_select

    def tamper(plan):
        result = original(plan)
        column = result.columns[name]
        column.index = BAD_INDEXES[bad](column.index, len(column.data))
        return result

    monkeypatch.setattr(small_system.server, "execute_select", tamper)
    with pytest.raises(QueryError, match="index"):
        small_system.query("SELECT v, w FROM s")


def _shard_result(index: list[int], entries: list[bytes]) -> ServerResult:
    result = ServerResult("t", np.arange(len(index), dtype=np.int64))
    result.columns["c"] = ResultColumn(
        "t", "c", True, entries, index=np.asarray(index, dtype=np.int32)
    )
    return result


def test_router_offsets_each_shards_index():
    from repro.cluster.router import ClusterRouter

    spans = [ShardSpan(0, 0, 1, 0, 3), ShardSpan(1, 1, 2, 3, 2)]
    merged = ClusterRouter._merge_results(
        None,
        "t",
        spans,
        [_shard_result([1, 0, 1], [b"a", b"b"]), _shard_result([0, 0], [b"c"])],
    )
    column = merged.columns["c"]
    assert column.data == [b"a", b"b", b"c"]
    assert column.index.tolist() == [1, 0, 1, 2, 2]
    assert merged.record_ids.tolist() == [0, 1, 2, 3, 4]


def test_router_refuses_a_shard_index_before_offsetting():
    """A negative index from the second shard must not become a valid
    position into the first shard's entries."""
    from repro.cluster.router import ClusterRouter

    spans = [ShardSpan(0, 0, 1, 0, 2), ShardSpan(1, 1, 2, 2, 1)]
    with pytest.raises(QueryError, match="index"):
        ClusterRouter._merge_results(
            None,
            "t",
            spans,
            [_shard_result([0, 1], [b"a", b"b"]), _shard_result([-1], [b"c"])],
        )
