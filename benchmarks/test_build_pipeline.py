"""Parallel, batched, streaming build pipeline (PR 4).

Measures the EncDBDB bulk-load path and emits machine-readable
``results/BENCH_build.json`` (uploaded by the ``build-bench`` CI job):

1. **Table 6 build-time shape.** Per-kind single-column build times for
   ED1/ED3/ED7/ED9: the repetition-hiding kinds pad every value's
   frequency up to a block bound, so their dictionaries are strictly
   larger and their builds strictly slower than the repetition-revealing
   kinds over the same data.

2. **Inline vs. thread-pool load.** A >=1M-row, 4-column
   (ED1+ED3+ED7+ED9) bulk load built inline (``max_workers=1``) and on the
   build thread pool. The artifacts must be byte-for-byte identical
   (per-partition child DRBGs make worker scheduling invisible); both
   wall-clock times are recorded, neither is gated.

Scale knob: ``ENCDBDB_BUILD_BENCH_ROWS`` (default 1,048,576 — the
acceptance floor; shrink locally for quick runs).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, write_result
from repro import EncDBDBSystem
from repro.bench import BenchStats
from repro.bench.report import format_table
from repro.columnstore.types import parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.builder import encdb_build_partitioned
from repro.encdict.options import kind_by_name
from repro.encdict.pipeline import shutdown_build_pools
from repro.runtime import detected_cores

BUILD_ROWS = int(os.environ.get("ENCDBDB_BUILD_BENCH_ROWS", 1 << 20))
BUILD_PARTITIONS = 8
BUILD_PARTITION_ROWS = max(1, BUILD_ROWS // BUILD_PARTITIONS)
BUILD_WORKERS = 4
BSMAX = 4
DISTINCT = 1024
KINDS = ("ED1", "ED3", "ED7", "ED9")
#: Per-kind shape section runs on a slice: the shape (hiding >> revealing)
#: is scale-free and the full-size builds are already timed by the load.
KIND_ROWS = max(1, BUILD_ROWS // 8)


def _column_values(seed: int, rows: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, DISTINCT, size=rows).astype(np.int64).tolist()


@pytest.fixture(scope="module")
def kind_runs():
    """Single-column serial build time per ED kind (Table 6 shape)."""
    values = _column_values(7, KIND_ROWS)
    runs = {}
    for kind_name in KINDS:
        pae = default_pae(rng=HmacDrbg(f"shape-{kind_name}"))
        start = time.perf_counter()
        builds = encdb_build_partitioned(
            values,
            kind_by_name(kind_name),
            partition_rows=max(1, KIND_ROWS // BUILD_PARTITIONS),
            value_type=parse_type("INTEGER"),
            key=b"\x06" * 16,
            pae=pae,
            rng=HmacDrbg(f"shape-rng-{kind_name}"),
            bsmax=BSMAX,
            table_name="bench",
            column_name="c",
        )
        runs[kind_name] = {
            "rows": KIND_ROWS,
            "build_s": time.perf_counter() - start,
            "dictionary_entries": sum(b.stats.dictionary_entries for b in builds),
            "encrypt_operations": pae.encrypt_count,
        }
    return runs


def _deploy(max_workers: int, columns) -> tuple[float, EncDBDBSystem]:
    system = EncDBDBSystem.create(seed=2026)
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE bench ({specs})")
    start = time.perf_counter()
    system.bulk_load(
        "bench",
        columns,
        partition_rows=BUILD_PARTITION_ROWS,
        max_workers=max_workers,
    )
    return time.perf_counter() - start, system


@pytest.fixture(scope="module")
def load_runs(tmp_path_factory):
    """Inline vs. thread-pool bulk load of the 4-column table, plus the
    byte-level comparison of the resulting storage files."""
    columns = {
        f"c{i}": _column_values(100 + i, BUILD_ROWS)
        for i in range(1, len(KINDS) + 1)
    }
    # Best of two interleaved rounds: a single full-load measurement carries
    # several percent of wall-clock noise.
    serial_s = parallel_s = float("inf")
    for _ in range(2):
        elapsed, serial_system = _deploy(1, columns)
        serial_s = min(serial_s, elapsed)
        elapsed, parallel_system = _deploy(BUILD_WORKERS, columns)
        parallel_s = min(parallel_s, elapsed)
    shutdown_build_pools()

    tmp = tmp_path_factory.mktemp("build-bench")
    serial_system.save(tmp / "serial.encdbdb")
    parallel_system.save(tmp / "parallel.encdbdb")
    byte_identical = (
        (tmp / "serial.encdbdb").read_bytes()
        == (tmp / "parallel.encdbdb").read_bytes()
    )
    return {
        "rows": BUILD_ROWS,
        "columns": len(KINDS),
        "kinds": list(KINDS),
        "partitions": BUILD_PARTITIONS,
        "workers": BUILD_WORKERS,
        "cores": detected_cores(),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "byte_identical": byte_identical,
    }


def test_build_time_shape_matches_table6(kind_runs):
    # Repetition hiding pads frequencies: more entries, more encryptions,
    # more time than the repetition-revealing kind with the same order.
    for revealing, hiding in (("ED1", "ED7"), ("ED3", "ED9")):
        assert (
            kind_runs[hiding]["dictionary_entries"]
            > kind_runs[revealing]["dictionary_entries"]
        )
        assert (
            kind_runs[hiding]["encrypt_operations"]
            > kind_runs[revealing]["encrypt_operations"]
        )
        assert kind_runs[hiding]["build_s"] > kind_runs[revealing]["build_s"]


def test_parallel_load_is_byte_identical_to_serial(load_runs):
    """The determinism acceptance criterion: worker count and scheduling
    must be invisible in the artifacts, on every machine."""
    assert load_runs["byte_identical"]


def test_report_build_bench(kind_runs, load_runs):
    rows = [
        (
            kind,
            f"{run['rows']:,}",
            f"{run['dictionary_entries']:,}",
            f"{run['encrypt_operations']:,}",
            f"{run['build_s'] * 1e3:.1f}",
        )
        for kind, run in kind_runs.items()
    ]
    text = format_table(
        f"Encrypted-dictionary build time by kind ({KIND_ROWS:,} rows, "
        f"bsmax={BSMAX})",
        ["kind", "rows", "dict entries", "encrypts", "build ms"],
        rows,
    )
    text += (
        f"\nBulk load ({BUILD_ROWS:,} rows x {len(KINDS)} columns, "
        f"{BUILD_PARTITIONS} partitions, {BUILD_WORKERS} workers requested, "
        f"{load_runs['cores']} cores): inline {load_runs['serial_s']:.2f} s, "
        f"thread pool {load_runs['parallel_s']:.2f} s, speedup "
        f"{load_runs['speedup']:.2f}x, byte-identical "
        f"{load_runs['byte_identical']}.\n"
    )
    write_result("build_pipeline", text)

    payload = {
        "kinds": kind_runs,
        "load": load_runs,
        "bench_stats": BenchStats.capture().to_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_build.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
