"""Query fast path (PR 1): repeated-query and multi-filter workloads.

Measures what the enclave's entry-cache budget buys against the paper's
constant-memory enclave (``FastPathConfig(dictionary_cache_bytes=0)``, the
configuration the Figure 8 benchmarks use):

- the in-enclave dictionary-entry cache on a repeated range-query workload
  (wall clock and cost-model decryptions, per dictionary kind);
- ``dict_search`` on a 3-filter conjunctive query: exactly one
  boundary crossing at either budget — batching is not a setting;
- the EPC-budget invariant of the cache under the same workload.

Alongside the human-readable ``results/fastpath.txt`` table this suite
emits machine-readable ``results/BENCH_fastpath.json`` with the raw
wall-clock numbers and cost-model deltas.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from conftest import RESULTS_DIR, write_result
from repro.bench.engines import EncDbdbColumnEngine
from repro.bench.report import format_table
from repro.client.session import EncDBDBSystem
from repro.columnstore.types import VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.encdict.options import kind_by_name
from repro.sgx.cache import FastPathConfig
from repro.workloads.queries import random_range_queries

# Fixed workload so the speedup assertions below are meaningful: the
# acceptance thresholds (>=3x wall clock, >=5x fewer decryptions on the
# unsorted kind) were calibrated against exactly this shape.
ROWS = 20_000
DISTINCT = 5_000
RANGE_SIZE = 2
NUM_QUERIES = 10
ROUNDS = 10
KINDS = ("ED1", "ED2", "ED3")
# The 3-filter query's wall_s is the median of this many repeats after one
# warm-up query; its cost_delta and search_ecalls are the warm-up's.
CONJUNCTIVE_REPEATS = 30


def _engines(kind_name: str):
    """(0-budget baseline, default-budget fast) engines over the same
    column and key material."""
    values = [f"val-{i % DISTINCT:05d}" for i in range(ROWS)]
    value_type = VarcharType(12)
    kind = kind_by_name(kind_name)
    baseline = EncDbdbColumnEngine(
        values,
        kind,
        value_type=value_type,
        rng=HmacDrbg(b"fastpath-bench"),
        fastpath=FastPathConfig(dictionary_cache_bytes=0),
    )
    fast = EncDbdbColumnEngine(
        values,
        kind,
        value_type=value_type,
        rng=HmacDrbg(b"fastpath-bench"),
        fastpath=FastPathConfig(),
    )
    queries = random_range_queries(values, RANGE_SIZE, NUM_QUERIES, HmacDrbg(b"q"))
    return baseline, fast, queries


def _run_rounds(engine, queries):
    """(wall_seconds, cost_delta, totals) over ROUNDS repetitions."""
    cost = engine.host.cost_model
    before = cost.snapshot()
    start = time.perf_counter()
    totals = [engine.run(query) for _ in range(ROUNDS) for query in queries]
    wall = time.perf_counter() - start
    return wall, cost.diff(before), totals


@pytest.fixture(scope="module")
def repeated_runs():
    """Baseline-vs-fast measurements of the repeated-query workload."""
    measured = {}
    for kind_name in KINDS:
        baseline, fast, queries = _engines(kind_name)
        base_wall, base_delta, base_totals = _run_rounds(baseline, queries)
        fast_wall, fast_delta, fast_totals = _run_rounds(fast, queries)
        assert fast_totals == base_totals, kind_name  # same answers, always
        cache = fast.host._enclave.entry_cache
        measured[kind_name] = {
            "baseline": {"wall_s": base_wall, "cost_delta": base_delta},
            "fast": {"wall_s": fast_wall, "cost_delta": fast_delta},
            "speedup_wall": base_wall / fast_wall,
            "decryption_ratio": (
                base_delta["decryptions"] / fast_delta["decryptions"]
            ),
            "cache": {
                "budget_bytes": cache.budget_bytes,
                "used_bytes": cache.used_bytes,
                "epc_pages_allocated": fast.host._enclave.epc.allocated_pages,
                **cache.stats.snapshot(),
            },
        }
    return measured


@pytest.fixture(scope="module")
def conjunctive_runs():
    """3-filter conjunctive query at a 0 and at the default cache budget:
    the counts of one cold query, the median wall clock of warm repeats."""
    rows = 200
    columns = {
        "a": [i % 50 for i in range(rows)],
        "b": [f"w{i % 40:03d}" for i in range(rows)],
        "c": [i % 30 for i in range(rows)],
    }
    sql = (
        "SELECT a FROM t WHERE a >= 10 AND b <= 'w020' AND c >= 5 ORDER BY a"
    )
    measured = {}
    for label, fastpath in (
        ("baseline", FastPathConfig(dictionary_cache_bytes=0)),
        ("fast", FastPathConfig()),
    ):
        system = EncDBDBSystem.create(seed=2026, fastpath=fastpath)
        system.execute(
            "CREATE TABLE t (a ED1 INTEGER, b ED2 VARCHAR(8), c ED3 INTEGER)"
        )
        system.bulk_load("t", columns)
        cost = system.server.cost_model
        before = cost.snapshot()
        result = system.query(sql)  # the warm-up: its counts are recorded
        delta = cost.diff(before)
        search_ecalls = cost.ecalls_by_name.get("dict_search", 0)
        walls = []
        for _ in range(CONJUNCTIVE_REPEATS):
            start = time.perf_counter()
            system.query(sql)
            walls.append(time.perf_counter() - start)
        measured[label] = {
            "wall_s": statistics.median(walls),
            "wall_repeats": CONJUNCTIVE_REPEATS,
            "cost_delta": delta,
            "search_ecalls": search_ecalls,
            "rows": [r[0] for r in result],
        }
    assert measured["fast"]["rows"] == measured["baseline"]["rows"]
    return measured


# ----------------------------------------------------------------------
# Acceptance assertions
# ----------------------------------------------------------------------


def test_repeated_queries_meet_speedup_targets(shape, repeated_runs):
    """ED3 repeated queries: >=3x wall clock, >=5x fewer decryptions.

    The unsorted kind is where the entry cache matters most — the baseline
    decrypts the entire dictionary on every query. The first fast round is
    cold (it fills the cache), so the ratios below include that cost.
    """
    ed3 = repeated_runs["ED3"]
    assert ed3["speedup_wall"] >= 3.0, ed3["speedup_wall"]
    assert ed3["decryption_ratio"] >= 5.0, ed3["decryption_ratio"]
    # The cache also pays off on the logarithmic kinds, if less dramatically.
    for kind_name in KINDS:
        assert repeated_runs[kind_name]["decryption_ratio"] >= 5.0, kind_name


def test_cache_never_exceeds_epc_budget(shape, repeated_runs):
    """The cache honours its EPC charge: usage and peak stay in budget."""
    for kind_name, run in repeated_runs.items():
        cache = run["cache"]
        assert cache["used_bytes"] <= cache["budget_bytes"], kind_name
        assert cache["peak_bytes"] <= cache["budget_bytes"], kind_name
        assert cache["epc_pages_allocated"] > 0, kind_name


def test_three_filter_conjunction_is_one_batch_ecall(shape, conjunctive_runs):
    """Batching: 3 encrypted filters -> exactly 1 dict_search ecall,
    with or without a cache (what keeps the legs apart is the decryption
    count of the repeated-query workload above)."""
    for label in ("baseline", "fast"):
        run = conjunctive_runs[label]
        assert run["cost_delta"]["ecalls"] == 1, label
        assert run["search_ecalls"] == 1, label


# ----------------------------------------------------------------------
# Timing visibility + report
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind_name", KINDS)
def test_benchmark_repeated_queries_fast(benchmark, kind_name):
    """pytest-benchmark timing of one warm fast-path round."""
    _, fast, queries = _engines(kind_name)
    for query in queries:  # warm the cache once
        fast.run(query)
    benchmark.pedantic(
        lambda: [fast.run(query) for query in queries], rounds=3, iterations=1
    )


def test_report_fastpath(shape, repeated_runs, conjunctive_runs):
    rows = []
    for kind_name in KINDS:
        run = repeated_runs[kind_name]
        rows.append(
            (
                kind_name,
                f"{run['baseline']['wall_s'] * 1e3:.1f}",
                f"{run['fast']['wall_s'] * 1e3:.1f}",
                f"{run['speedup_wall']:.2f}x",
                run["baseline"]["cost_delta"]["decryptions"],
                run["fast"]["cost_delta"]["decryptions"],
                f"{run['decryption_ratio']:.1f}x",
            )
        )
    text = format_table(
        "Query fast path: repeated range queries "
        f"({ROWS} rows, |D|={DISTINCT}, {NUM_QUERIES} queries x {ROUNDS} "
        "rounds), 0-budget baseline vs default entry-cache budget",
        ["kind", "base ms", "fast ms", "speedup", "base decrypts",
         "fast decrypts", "ratio"],
        rows,
    )
    batch = conjunctive_runs
    text += (
        "\n3-filter conjunctive query: "
        f"{batch['baseline']['cost_delta']['ecalls']} ecall at budget 0, "
        f"{batch['fast']['cost_delta']['ecalls']} at the default budget "
        "(one dict_search either way).\n"
    )
    write_result("fastpath", text)

    payload = {
        "workload": {
            "rows": ROWS,
            "distinct_values": DISTINCT,
            "range_size": RANGE_SIZE,
            "queries": NUM_QUERIES,
            "rounds": ROUNDS,
        },
        "repeated_queries": repeated_runs,
        "conjunctive_query": {
            label: {k: v for k, v in run.items() if k != "rows"}
            for label, run in conjunctive_runs.items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fastpath.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    assert len(rows) == len(KINDS)
