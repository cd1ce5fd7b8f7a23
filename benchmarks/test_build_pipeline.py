"""Encrypted-dictionary build time by kind (the Table 6 build-time shape).

Measures per-kind single-column build times for ED1/ED3/ED7/ED9 and emits
machine-readable ``results/BENCH_build.json`` (uploaded by the
``build-bench`` CI job): the repetition-hiding kinds pad every value's
frequency up to a block bound, so their dictionaries are strictly larger
and their builds strictly slower than the repetition-revealing kinds over
the same data.

Scale knob: ``ENCDBDB_BUILD_BENCH_ROWS`` (default 131,072; shrink locally
for quick runs).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, write_result
from repro.bench import BenchStats
from repro.bench.report import format_table
from repro.columnstore.types import parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.builder import encdb_build_partitioned
from repro.encdict.options import kind_by_name

KIND_ROWS = int(os.environ.get("ENCDBDB_BUILD_BENCH_ROWS", 1 << 17))
BUILD_PARTITIONS = 8
BSMAX = 4
DISTINCT = 1024
KINDS = ("ED1", "ED3", "ED7", "ED9")


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


def test_report_build_bench(kind_runs):
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
    write_result("build_pipeline", text)

    payload = {
        "kinds": kind_runs,
        "bench_stats": BenchStats.capture().to_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_build.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
