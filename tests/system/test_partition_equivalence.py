"""Partitioned layouts are invisible to query results.

Acceptance gate for the partitioned column store: every one of the nine ED
kinds must return the *identical RecordID set* for Figure 7-style range
queries whether a column is stored as 1, 2, or 7 partitions — and the set
must match the plaintext ground truth.
"""

from __future__ import annotations

import pytest

from repro import EncDBDBSystem
from repro.crypto.drbg import HmacDrbg
from repro.sql.parser import parse
from repro.sql.planner import SelectPlan
from repro.workloads.queries import random_range_queries

KINDS = [f"ED{i}" for i in range(1, 10)]
ROWS = 42
# 42 rows under these layouts -> 1, 2, and 7 main partitions.
LAYOUTS = {None: 1, 21: 2, 6: 7}
VALUES = [((i * 7) % 13) + 1 for i in range(ROWS)]  # 13 uniques, repeated


def _deploy(partition_rows):
    system = EncDBDBSystem.create(seed=99)
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs})")
    system.bulk_load(
        "t",
        {f"c{i}": list(VALUES) for i in range(1, 10)},
        partition_rows=partition_rows,
    )
    return system


def _record_ids(system, sql):
    plan = system.proxy._planner.plan(parse(sql))
    encrypted = SelectPlan(
        plan.table,
        plan.needed_columns,
        system.proxy._encrypt_filter(plan.table, plan.filter),
        plan.post,
    )
    return {int(rid) for rid in system.server.execute_select(encrypted).record_ids}


@pytest.fixture(scope="module")
def systems():
    return {rows: _deploy(rows) for rows in LAYOUTS}


@pytest.fixture(scope="module")
def queries():
    rng = HmacDrbg(b"figure7-partition-fixture")
    return random_range_queries(VALUES, 2, 4, rng) + random_range_queries(
        VALUES, 5, 4, rng
    )


def test_layouts_produce_expected_partition_counts(systems):
    for partition_rows, expected in LAYOUTS.items():
        column = systems[partition_rows].server.catalog.table("t").columns["c1"]
        assert len(column.partition_builds) == expected


def test_all_kinds_return_identical_record_ids_across_layouts(systems, queries):
    for query in queries:
        truth = {
            rid for rid, value in enumerate(VALUES) if query.low <= value <= query.high
        }
        for index, kind in enumerate(KINDS, 1):
            between = f"c{index} BETWEEN {query.low} AND {query.high}"
            # The duplicated predicate gives one query two encrypted leaves
            # on one column with identical search results.
            for where in (between, f"{between} OR {between}"):
                sql = f"SELECT c{index} FROM t WHERE {where}"
                results = {
                    rows: _record_ids(system, sql) for rows, system in systems.items()
                }
                assert results[None] == truth, (kind, where)
                for partition_rows, rids in results.items():
                    assert rids == truth, (kind, partition_rows, where)


def test_equivalence_holds_with_delta_rows(systems):
    sql = "SELECT c1 FROM t WHERE c1 BETWEEN 3 AND 5"
    truth = {rid for rid, value in enumerate(VALUES) if 3 <= value <= 5}
    row = ", ".join(["4"] * 9)
    for system in systems.values():
        system.execute(f"INSERT INTO t VALUES ({row})")
    truth = truth | {ROWS}  # the delta row matches and gets the next RecordID
    for partition_rows, system in systems.items():
        assert _record_ids(system, sql) == truth, partition_rows
