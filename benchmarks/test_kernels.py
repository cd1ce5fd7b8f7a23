"""Vectorized enclave kernels (PR 6): measured, guarded, and emitted as
machine-readable ``results/BENCH_kernels.json`` (uploaded by the
``kernels-bench`` CI job).

Two claims:

1. **Packed-ordinal ED3 scan throughput.** A warm cached dictionary scan
   (decrypt-once packed array + one boolean-mask kernel) must beat the
   cache-less scalar path (one decryption per entry, Python loop — the
   paper's constant-memory enclave) by >= 5x on one core — the ISSUE
   targets >= 10x and the measured ratio is recorded.

2. **Results stay identical** across both paths measured here.

Every record carries :class:`repro.bench.BenchStats` so regressions can be
attributed to host shape (cores, workers).
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import RESULTS_DIR, write_result
from repro.bench import BenchStats
from repro.bench.report import format_table
from repro.columnstore.types import VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import default_pae, pae_gen
from repro.encdict.builder import encdb_build
from repro.encdict.options import ED3
from repro.encdict.search import DictionarySearcher, OrdinalRange
from repro.sgx.cache import EnclaveLruCache
from repro.sgx.costs import CostModel

DICT_ENTRIES = 4096
DICT_ROUNDS = 5

#: CI regression guard. The scalar/vectorized floor is deliberately below
#: the >= 10x target so host noise cannot flake the job.
MIN_VECTOR_SPEEDUP = 5.0
TARGET_VECTOR_SPEEDUP = 10.0


def _best_of(fn, rounds: int):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# 1. ED3 dictionary scan: cache-less scalar loop vs packed-ordinal kernel
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ed3_run():
    rng = HmacDrbg(b"kernel-bench")
    pae = default_pae(rng=rng.fork("pae"))
    master = pae_gen(rng=rng.fork("master"))
    key = derive_column_key(master, "t", "c")
    values = [f"v{i:05d}" for i in range(DICT_ENTRIES)]
    build = encdb_build(
        values,
        ED3,
        value_type=VarcharType(12),
        key=key,
        pae=pae,
        rng=rng.fork("build"),
        bsmax=3,
        table_name="t",
        column_name="c",
    )
    vt = build.dictionary.value_type
    search = OrdinalRange(vt.ordinal("v01000"), vt.ordinal("v03000"))

    def measure(cache: EnclaveLruCache | None):
        searcher = DictionarySearcher(pae, CostModel(), cache)
        cold_s, _ = _best_of(
            lambda: searcher.search(build.dictionary, search, key=key), rounds=1
        )
        warm_s, result = _best_of(
            lambda: searcher.search(build.dictionary, search, key=key),
            rounds=DICT_ROUNDS,
        )
        return cold_s, warm_s, result

    scalar_cold_s, scalar_warm_s, scalar_result = measure(None)
    vector_cold_s, vector_warm_s, vector_result = measure(
        EnclaveLruCache(budget_bytes=1 << 24)
    )
    assert vector_result.vids == scalar_result.vids  # identical ValueIDs
    return {
        "entries": DICT_ENTRIES,
        "matches": len(scalar_result.vids),
        "rounds": DICT_ROUNDS,
        "scalar_cold_s": scalar_cold_s,
        "scalar_warm_s": scalar_warm_s,
        "vectorized_cold_s": vector_cold_s,
        "vectorized_warm_s": vector_warm_s,
        "warm_speedup": scalar_warm_s / vector_warm_s,
        "warm_entries_per_s": DICT_ENTRIES / vector_warm_s,
        "min_speedup": MIN_VECTOR_SPEEDUP,
        "target_speedup": TARGET_VECTOR_SPEEDUP,
    }


def test_vectorized_ed3_scan_beats_scalar(ed3_run):
    assert ed3_run["warm_speedup"] >= MIN_VECTOR_SPEEDUP, ed3_run


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def test_report_kernels_bench(ed3_run):
    stats = BenchStats.capture()
    text = format_table(
        f"ED3 dictionary scan, {DICT_ENTRIES:,} entries (warm, best of "
        f"{DICT_ROUNDS})",
        ["path", "warm ms", "speedup"],
        [
            ("scalar", f"{ed3_run['scalar_warm_s'] * 1e3:.2f}", "1.00x"),
            (
                "vectorized",
                f"{ed3_run['vectorized_warm_s'] * 1e3:.2f}",
                f"{ed3_run['warm_speedup']:.2f}x",
            ),
        ],
    )
    write_result("kernels", text)

    payload = {
        "ed3_dictionary_scan": ed3_run,
        "bench_stats": stats.to_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    assert (RESULTS_DIR / "BENCH_kernels.json").exists()
