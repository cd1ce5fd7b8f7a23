"""Partitioned column store: per-partition scans and incremental merge (PR 3).

Two claims are measured and asserted, then emitted as machine-readable
``results/BENCH_partition.json`` (uploaded by the ``partition-bench`` CI
job):

1. **Partitioned scans are equivalent.** A >=1M-row attribute vector split
   into partitions and scanned one partition after another returns the
   identical RecordID set as the single-vector scan, for both the range
   path (ED1, sorted dictionary) and the explicit ValueID path (ED3,
   unsorted dictionary); both wall-clock times are recorded.

2. **Merge cost tracks dirty partitions.** Merging a table with one dirty
   partition rebuilds one partition slot and is faster than merging the
   same table with every partition dirty.

A third test pins partitioned deployments to the seed single-partition
results on the Figure 7 result-count fixtures: the per-query result counts
must match the plaintext ground truth exactly under both layouts.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, write_result
from repro import EncDBDBSystem
from repro.bench import BenchStats
from repro.bench.report import format_table
from repro.crypto.drbg import HmacDrbg
from repro.encdict.attrvect import attr_vect_search, attr_vect_search_many
from repro.encdict.search import DUMMY_RANGE, SearchResult
from repro.workloads.queries import expected_result_rows, random_range_queries

SCAN_ROWS = 1 << 20  # >= 1M rows, the acceptance floor
SCAN_PARTITIONS = 8
SCAN_ROUNDS = 3
MERGE_ROWS = 4000
MERGE_PARTITION_ROWS = 500

#: Search shapes of the two scan paths: ED1's padded ranges and ED3's
#: explicit ValueID list (Table 4's O(|AV|) and O(|AV|*|vid|) rows).
SEARCHES = {
    "ED1": SearchResult(
        ranges=((100, 140), (300, 310), (512, 600), (700, 701))
        + (DUMMY_RANGE,) * 4
    ),
    "ED3": SearchResult(vids=tuple(range(0, 200, 4))),
}


def _best_of(fn, rounds: int = SCAN_ROUNDS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def attribute_vector() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.integers(0, 1024, size=SCAN_ROWS).astype(np.int64)


@pytest.fixture(scope="module")
def scan_runs(attribute_vector):
    chunk = SCAN_ROWS // SCAN_PARTITIONS
    starts = list(range(0, SCAN_ROWS, chunk))
    runs = {}
    for kind, search in SEARCHES.items():
        sequential_s, sequential = _best_of(
            lambda: attr_vect_search(attribute_vector, search)
        )
        jobs = [
            (attribute_vector[start : start + chunk], search) for start in starts
        ]

        def partitioned_union():
            parts = attr_vect_search_many(jobs)
            return np.concatenate(
                [rids + start for rids, start in zip(parts, starts)]
            )

        partitioned_s, partitioned = _best_of(partitioned_union)
        assert partitioned.tolist() == sequential.tolist()  # identical RecordIDs
        runs[kind] = {
            "rows": SCAN_ROWS,
            "partitions": SCAN_PARTITIONS,
            "matches": int(len(sequential)),
            "sequential_s": sequential_s,
            "partitioned_s": partitioned_s,
        }
    return runs


def test_partitioned_scan_matches_single_vector_scan(scan_runs):
    # RecordID identity is asserted while measuring; both shapes must match
    # something for that comparison to mean anything.
    for kind, run in scan_runs.items():
        assert run["matches"] > 0, kind


# ----------------------------------------------------------------------
# Incremental merge: cost proportional to dirty partitions
# ----------------------------------------------------------------------
def _merge_system() -> EncDBDBSystem:
    system = EncDBDBSystem.create(seed=1234)
    system.execute("CREATE TABLE m (v ED1 INTEGER)")
    system.bulk_load(
        "m",
        {"v": list(range(MERGE_ROWS))},
        partition_rows=MERGE_PARTITION_ROWS,
    )
    return system


@pytest.fixture(scope="module")
def merge_runs():
    partitions = MERGE_ROWS // MERGE_PARTITION_ROWS
    runs = {}
    for label, deletes in (
        ("one_dirty", [(0, 9)]),
        (
            "all_dirty",
            [
                (start, start)
                for start in range(0, MERGE_ROWS, MERGE_PARTITION_ROWS)
            ],
        ),
    ):
        system = _merge_system()
        for low, high in deletes:
            system.execute(f"DELETE FROM m WHERE v BETWEEN {low} AND {high}")
        start = time.perf_counter()
        system.merge("m")
        wall_s = time.perf_counter() - start
        stats = system.server.executor.last_merge_stats
        runs[label] = {
            "partitions_total": stats.partitions_total,
            "partitions_rebuilt": stats.partitions_rebuilt,
            "partitions_kept": stats.partitions_kept,
            "wall_s": wall_s,
        }
    runs["one_dirty"]["expected_rebuilt"] = 1
    runs["all_dirty"]["expected_rebuilt"] = partitions
    return runs


def test_merge_rebuilds_only_dirty_partitions(merge_runs):
    assert merge_runs["one_dirty"]["partitions_rebuilt"] == 1
    assert (
        merge_runs["all_dirty"]["partitions_rebuilt"]
        == merge_runs["all_dirty"]["expected_rebuilt"]
    )
    assert merge_runs["one_dirty"]["wall_s"] < merge_runs["all_dirty"]["wall_s"]


# ----------------------------------------------------------------------
# Figure 7 result-count fixtures: partitioned == seed single-partition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure7_equivalence(workbench):
    rows = min(2000, workbench.settings.rows)
    values = workbench.column("C1", rows)
    queries = random_range_queries(
        values, 2, 8, HmacDrbg(b"partition-fig7")
    ) + random_range_queries(values, 100, 8, HmacDrbg(b"partition-fig7-rs100"))

    counts: dict[str, list[int]] = {}
    for label, partition_rows in (("single", None), ("partitioned", 512)):
        system = EncDBDBSystem.create(seed=77)
        system.execute("CREATE TABLE f (c ED1 VARCHAR(40))")
        system.bulk_load("f", {"c": list(values)}, partition_rows=partition_rows)
        counts[label] = []
        for query in queries:
            low = str(query.low).replace("'", "''")
            high = str(query.high).replace("'", "''")
            counts[label].append(
                system.query(
                    f"SELECT COUNT(*) FROM f WHERE c BETWEEN '{low}' AND '{high}'"
                ).scalar()
            )
    truth = [expected_result_rows(values, query) for query in queries]
    return {"rows": rows, "queries": len(queries), "truth": truth, **counts}


def test_partitioned_matches_seed_on_figure7_fixtures(figure7_equivalence):
    assert figure7_equivalence["partitioned"] == figure7_equivalence["single"]
    assert figure7_equivalence["single"] == figure7_equivalence["truth"]


def test_report_partition_bench(scan_runs, merge_runs, figure7_equivalence):
    rows = [
        (
            kind,
            f"{run['rows']:,}",
            run["partitions"],
            f"{run['sequential_s'] * 1e3:.1f}",
            f"{run['partitioned_s'] * 1e3:.1f}",
        )
        for kind, run in scan_runs.items()
    ]
    text = format_table(
        f"Partitioned attribute-vector scan ({SCAN_ROWS:,} rows, "
        f"{SCAN_PARTITIONS} partitions, best of {SCAN_ROUNDS})",
        ["kind", "rows", "parts", "single ms", "partitioned ms"],
        rows,
    )
    text += (
        "\nIncremental merge: "
        f"{merge_runs['one_dirty']['partitions_rebuilt']}/"
        f"{merge_runs['one_dirty']['partitions_total']} partitions rebuilt in "
        f"{merge_runs['one_dirty']['wall_s'] * 1e3:.1f} ms (one dirty) vs "
        f"{merge_runs['all_dirty']['partitions_rebuilt']}/"
        f"{merge_runs['all_dirty']['partitions_total']} in "
        f"{merge_runs['all_dirty']['wall_s'] * 1e3:.1f} ms (all dirty).\n"
    )
    write_result("partition_scan", text)

    payload = {
        "scan": scan_runs,
        "merge": merge_runs,
        "figure7_equivalence": figure7_equivalence,
        "bench_stats": BenchStats.capture().to_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_partition.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    assert (RESULTS_DIR / "BENCH_partition.json").exists()
