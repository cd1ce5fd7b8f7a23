"""Concurrent attribute-vector scans of one column from many threads.

Scans run in the thread that calls them, so two server sessions scanning
the same column do so on their own worker threads at the same time. The
scan shares nothing mutable but the cost model: every thread must get the
bit-identical RecordIDs and the comparison total must be exactly additive.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import EncDBDBSystem
from repro.sgx.costs import CostModel
from repro.sql.parser import parse

THREADS = 8
ROUNDS = 25
PARTITIONS = 8
PARTITION_ROWS = 16
VALUES = [((i * 7) % 29) + 1 for i in range(PARTITIONS * PARTITION_ROWS)]


def test_eight_threads_scan_one_partitioned_column():
    system = EncDBDBSystem.create(seed=17)
    system.execute("CREATE TABLE t (v ED5 INTEGER)")
    system.bulk_load("t", {"v": list(VALUES)}, partition_rows=PARTITION_ROWS)
    column = system.server.catalog.table("t").columns["v"]
    assert len(column.partition_builds) == PARTITIONS

    plan = system.proxy._planner.plan(parse("SELECT v FROM t WHERE v BETWEEN 5 AND 19"))
    tau = system.proxy._encrypt_filter(plan.table, plan.filter).tau
    requests = column.search_requests(tau)
    results = system.server.enclave_host.ecall(
        "dict_search", [(dictionary, t) for _, dictionary, t in requests]
    )
    labeled = [(label, result) for (label, _, _), result in zip(requests, results)]

    single = CostModel()
    expected = column.record_ids_from_results(labeled, cost_model=single)
    assert sorted(expected.tolist()) == [
        rid for rid, value in enumerate(VALUES) if 5 <= value <= 19
    ]
    assert single.comparisons > 0

    shared = CostModel()
    start = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def hammer() -> None:
        try:
            start.wait()
            for _ in range(ROUNDS):
                got = column.record_ids_from_results(labeled, cost_model=shared)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert shared.comparisons == THREADS * ROUNDS * single.comparisons
