"""Table 1: EncDBDB's row in the TEE-database comparison.

The paper compares EnclaveDB, ObliDB, StealthDB, and EncDBDB on workload,
protection object, compression, storage/performance overhead, and enclave
LOC. The other systems' numbers are quoted from the paper; this benchmark
*measures* the reproduction's own row:

- **storage overhead** of the best compressed encrypted dictionary (ED1-3)
  vs the plaintext file — the paper reports < 100% (negative on C2);
- **performance overhead** of EncDBDB vs PlainDBDB (paper: ~8.9%), the
  median of repeated measurements with its interquartile range;
- **enclave LOC** of the reproduction's trusted computing base (paper:
  1129 C LOC), derived by an import walk
  (:func:`repro.analysis.trustmap.tcb_modules`): the full TCB is every
  module the enclave program reaches, the query path is what
  ``dict_search`` hands its work to, and the from-scratch AES/GCM fallback
  is a row of its own.
"""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

import pytest

from conftest import write_result
from fig8_common import measure_cell
from repro.analysis.trustmap import tcb_modules
from repro.bench.report import format_table
from repro.bench.storage import plaintext_file_bytes, storage_table_for_column
from repro.columnstore.types import VarcharType

#: The enclave program: the full TCB is everything it imports (DESIGN.md §10).
ENCLAVE_ROOTS = ("repro.encdict.enclave_app",)
#: The two modules ``dict_search`` hands its work to: the per-query TCB.
QUERY_PATH_ROOTS = ("repro.encdict.search", "repro.sgx.cache")
#: The from-scratch AES/GCM behind ``PurePythonPae``: it runs only without
#: the ``cryptography`` package (and in the PAE-backend ablation), where the
#: paper's enclave has AES-NI. Reported as its own row, in neither total.
FALLBACK_FILES = ("crypto/aes.py", "crypto/gcm.py")

#: The performance-overhead cell is the median of this many overhead
#: measurements (each one pass of the C2/ED1 query set per engine); one
#: pass swings by a factor of two between runs.
PERF_OVERHEAD_REPEATS = 11


def count_code_lines(path: Path) -> int:
    """Non-blank, non-comment, non-docstring lines of one source file."""
    code_lines = 0
    in_docstring = False
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        quote_count = stripped.count('"""') + stripped.count("'''")
        if in_docstring:
            if quote_count % 2 == 1:
                in_docstring = False
            continue
        if quote_count == 1 and (
            stripped.startswith('"""') or stripped.startswith("'''")
        ):
            in_docstring = True
            continue
        if quote_count == 2 and (
            stripped.startswith('"""') or stripped.startswith("'''")
        ):
            continue  # one-line docstring
        code_lines += 1
    return code_lines


def count_tcb_loc(roots: tuple[str, ...] = ENCLAVE_ROOTS) -> dict[str, int]:
    """Code lines of every module ``roots`` reach, keyed by the file's path
    under the ``repro`` package (``encdict/search.py``)."""
    package_root = Path(__import__("repro").__file__).parent
    counts = {}
    for module in tcb_modules(roots):
        path = Path(importlib.util.find_spec(module).origin)
        counts[path.relative_to(package_root).as_posix()] = count_code_lines(path)
    return counts


def without_fallback(loc: dict[str, int]) -> int:
    """The code lines of ``loc`` outside the fallback AES/GCM files."""
    return sum(count for name, count in loc.items() if name not in FALLBACK_FILES)


@pytest.fixture(scope="module")
def encdbdb_row(workbench):
    values = workbench.column("C2")
    storage = storage_table_for_column(
        values, string_length=workbench.spec("C2").string_length,
        bsmax_values=(10,),
    )
    plaintext = plaintext_file_bytes(
        values, VarcharType(workbench.spec("C2").string_length)
    )
    storage_overhead = storage["ED1/ED2/ED3"] / plaintext - 1.0

    overheads = []
    for _ in range(PERF_OVERHEAD_REPEATS):
        stats = measure_cell(workbench, "ED1", "C2", 100)
        overheads.append(stats["EncDBDB"].mean / stats["PlainDBDB"].mean - 1.0)
    # (first quartile, median, third quartile)
    perf_overhead = tuple(statistics.quantiles(overheads, n=4))

    loc = {"full": count_tcb_loc(), "query": count_tcb_loc(QUERY_PATH_ROOTS)}
    return storage_overhead, perf_overhead, loc


def test_report_table1(benchmark, encdbdb_row):
    storage_overhead, (perf_q1, perf_median, perf_q3), loc = encdbdb_row
    full, query = loc["full"], loc["query"]
    published = [
        ("EnclaveDB [71]", "OLTP", "storage+query engine", "no", "N/A",
         "> 20 %", "~235,000"),
        ("ObliDB [31]", "OLTP & OLAP", "array or B+-tree", "no", "> 100 %",
         "> 200 %", "~10,000"),
        ("StealthDB [39]", "OLTP", "primitive operators", "no", "> 300 %",
         "> 20 %", "~1,500"),
        ("EncDBDB (paper)", "OLAP", "dictionaries", "yes", "< 100 %",
         "~8.9 %", "1,129"),
        (
            "EncDBDB (this repro)",
            "OLAP",
            "dictionaries",
            "yes",
            f"{storage_overhead * 100:+.1f} %",
            f"{perf_median * 100:+.1f} %",
            f"{without_fallback(full):,} (Python)",
        ),
    ]
    text = format_table(
        "Table 1: TEE-database comparison (first four rows quoted from the "
        "paper; last row measured by this reproduction on C2)",
        ["approach", "workload", "protection object", "compression",
         "storage ovh", "perf ovh", "enclave LOC"],
        published,
    )
    text += (
        f"\n\nperf ovh: median of {PERF_OVERHEAD_REPEATS} repeats, IQR "
        f"{perf_q1 * 100:+.1f} % .. {perf_q3 * 100:+.1f} %"
    )
    fallback = sum(full[name] for name in FALLBACK_FILES)
    text += (
        "\n\nenclave LOC: code lines (no blanks, comments or docstrings) of the"
        " modules an import walk reaches"
        f"\n  full TCB, from encdict/enclave_app.py       {without_fallback(full):5,d}"
        f"  ({len(full) - len(FALLBACK_FILES)} modules)"
        f"\n  query path, from search.py + sgx/cache.py  {without_fallback(query):5,d}"
        "  (paper: 1,129)"
        f"\n  fallback AES/GCM, in neither row above     {fallback:5,d}"
        f"  ({', '.join(FALLBACK_FILES)})"
    )
    text += (
        "\n\nPer-file breakdown of the full TCB (q = on the query path, "
        "f = fallback):\n"
        + "\n".join(
            f"  {name:28s} {count:5d}  "
            f"{'q' if name in query else ''} {'f' if name in FALLBACK_FILES else ''}"
            .rstrip()
            for name, count in full.items()
        )
    )
    write_result("table1_comparison", text)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(published) == 5


def test_storage_overhead_below_100_percent(shape, encdbdb_row):
    """ED1-3 on the compressible column beats even the plaintext file."""
    storage_overhead, _, _ = encdbdb_row
    assert storage_overhead < 1.0
    assert storage_overhead < 0.0  # C2 compresses below plaintext size


def test_performance_overhead_moderate(shape, encdbdb_row):
    """EncDBDB vs PlainDBDB: same order of magnitude (paper: 8.9%).

    Pure-Python decryption costs more per call than AES-NI, so the
    tolerance is generous; the claim preserved is 'encryption does not
    change the complexity class'.
    """
    _, (_, perf_median, _), _ = encdbdb_row
    assert perf_median < 4.0


def test_enclave_tcb_is_small(shape, encdbdb_row):
    """The trusted code stays in the low thousands of lines — the paper's
    small-TCB argument (1,129 C LOC). The from-scratch AES/GCM fallback,
    which the paper delegates to hardware, is reported apart and not
    counted here."""
    _, _, loc = encdbdb_row
    assert without_fallback(loc["full"]) < 2500, loc["full"]
    assert loc["full"]["encdict/search.py"] < 400
