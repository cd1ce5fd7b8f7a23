"""Scatter-gather is invisible to query results.

The cluster twin of ``tests/system/test_partition_equivalence.py``: every
one of the nine ED kinds must return the *identical RecordID set* for range
queries whether the table lives on one node or is scattered over 1, 2, or 3
shards — the gathered union of per-shard padded results, rebased by span
row bases, must equal the single-node padded union exactly.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import EncDBDBSystem
from repro.cluster import ClusterSystem
from repro.sql.parser import parse
from repro.sql.planner import SelectPlan

from tests.cluster.conftest import FAST_RETRY, live_cluster

KINDS = [f"ED{i}" for i in range(1, 10)]
ROWS = 42
PARTITION_ROWS = 6  # 7 partitions: spans 2/2/3 on a 3-shard cluster
SEED = 99
VALUES = [((i * 7) % 13) + 1 for i in range(ROWS)]  # 13 uniques, repeated
QUERIES = [(2, 5), (7, 7), (10, 12), (1, 13)]
SHARD_COUNTS = (1, 2, 3)


def _load(system) -> None:
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs})")
    system.bulk_load(
        "t",
        {f"c{i}": list(VALUES) for i in range(1, 10)},
        partition_rows=PARTITION_ROWS,
    )


def _record_ids(system, sql):
    """Server-side RecordID set for ``sql``, via a manually encrypted plan."""
    plan = system.proxy._planner.plan(parse(sql))
    encrypted = SelectPlan(
        plan.table,
        plan.needed_columns,
        system.proxy._encrypt_filter(plan.table, plan.filter),
        plan.post,
    )
    return {int(rid) for rid in system.server.execute_select(encrypted).record_ids}


@pytest.fixture(scope="module")
def deployments():
    """The same seed deployed single-node and as 1/2/3-shard clusters."""
    with contextlib.ExitStack() as stack:
        single = EncDBDBSystem.create(seed=SEED)
        _load(single)
        systems = {"single": single}
        for shards in SHARD_COUNTS:
            handles = stack.enter_context(live_cluster(shards))
            cluster = stack.enter_context(
                ClusterSystem.connect(
                    handles.shard_map, seed=SEED, retry=FAST_RETRY
                )
            )
            _load(cluster)
            systems[shards] = cluster
        yield systems


def test_spans_cover_expected_partitions(deployments):
    assignment = deployments[3].router.shard_map.assignment("t")
    assert [span.partitions for span in assignment.spans] == [2, 2, 3]
    assert [span.row_base for span in assignment.spans] == [0, 12, 24]


def test_all_kinds_return_identical_record_ids_across_topologies(deployments):
    for low, high in QUERIES:
        truth = {
            rid for rid, value in enumerate(VALUES) if low <= value <= high
        }
        for index, kind in enumerate(KINDS, 1):
            sql = (
                f"SELECT c{index} FROM t WHERE c{index} "
                f"BETWEEN {low} AND {high}"
            )
            single = _record_ids(deployments["single"], sql)
            assert single == truth, kind
            for shards in SHARD_COUNTS:
                assert _record_ids(deployments[shards], sql) == truth, (
                    kind,
                    shards,
                    (low, high),
                )


def test_full_query_path_returns_identical_rows(deployments):
    sql = "SELECT c1, c5, c9 FROM t WHERE c5 BETWEEN 3 AND 9"
    expected = sorted(
        zip(*(deployments["single"].query(sql).column(c) for c in ("c1", "c5", "c9")))
    )
    for shards in SHARD_COUNTS:
        result = deployments[shards].query(sql)
        got = sorted(zip(*(result.column(c) for c in ("c1", "c5", "c9"))))
        assert got == expected, shards


def test_explain_surfaces_cluster_routing(deployments):
    text = deployments[3].explain("SELECT c1 FROM t WHERE c1 BETWEEN 2 AND 5")
    assert "cluster routing (3 shard(s))" in text
    assert "scatter over 3 shard(s), 7 partition(s)" in text
    assert "delta on shard 2" in text


def test_equivalence_holds_with_delta_rows(deployments):
    """Inserts land on the tail shard; delta RecordIDs stay global."""
    row = ", ".join(["4"] * 9)
    for system in deployments.values():
        system.execute(f"INSERT INTO t VALUES ({row})")
    sql = "SELECT c1 FROM t WHERE c1 BETWEEN 3 AND 5"
    truth = {rid for rid, value in enumerate(VALUES) if 3 <= value <= 5}
    truth.add(ROWS)  # the freshly inserted delta row
    assert _record_ids(deployments["single"], sql) == truth
    for shards in SHARD_COUNTS:
        assert _record_ids(deployments[shards], sql) == truth, shards


def test_delete_by_global_record_id_reaches_owning_shards(deployments):
    """DELETE planned from global ids must translate per shard."""
    sql = "DELETE FROM t WHERE c2 BETWEEN 6 AND 6"
    expected = deployments["single"].execute(sql)
    assert expected > 0
    for shards in SHARD_COUNTS:
        assert deployments[shards].execute(sql) == expected, shards
    check = "SELECT c2 FROM t WHERE c2 BETWEEN 1 AND 13"
    remaining = _record_ids(deployments["single"], check)
    for shards in SHARD_COUNTS:
        assert _record_ids(deployments[shards], check) == remaining, shards


def test_empty_load_is_a_no_op_on_a_cluster_too():
    """An empty partitioned load places nothing and records no assignment
    (in-process and TCP: tests/system/test_build_pipeline_system.py); the
    table stays queryable, insertable and loadable."""
    with live_cluster(2) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=FAST_RETRY
        ) as cluster:
            cluster.execute("CREATE TABLE e (id INTEGER, v ED3 INTEGER)")
            empty = cluster.bulk_load("e", {"id": [], "v": []}, partition_rows=4)
            assert (empty.total_rows, empty.spans) == (0, ())
            assert handles.shard_map.assignment("e") is None
            assert cluster.query("SELECT id FROM e WHERE v > 0").rows == []
            loaded = cluster.bulk_load(
                "e", {"id": [1, 2, 3], "v": [4, 5, 6]}, partition_rows=2
            )
            assert loaded.total_rows == 3
            assert sorted(cluster.query("SELECT id FROM e WHERE v > 4").column("id")) == [2, 3]
