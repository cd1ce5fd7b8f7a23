"""Every constant of the benchmark: sizes, rates, limits, metric tables.

Nothing here is recomputed at run time. The open-loop rates and the latency
limit of ``serve_tcp`` were calibrated once on the seed commit (README,
"Calibration") and are committed as numbers, so a later change is measured
against the same offered load and the same limit.

``BENCHMARK.json`` at the repository root is generated from this module
(``python benchmarks/e2e/run.py --print-benchmark-json``) and a test pins
the two to each other.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

WORKLOADS = {
    "range_inproc": (
        "in-process, 1 client closed loop, tiny results: dictionary search, AV scan and the "
        "ecall boundary dominate; seek/plain/spill vary only what the search costs"
    ),
    "wide_tcp": (
        "server subprocess, 1 connection, ~10k-row results: render, wire codec and proxy "
        "decrypt dominate, search is <2%; agg drives the same path through pushdown"
    ),
    "serve_tcp": (
        "server subprocess, 2 connections back-to-back on an 80/20 seek/narrow mix: the only "
        "workload with contention for the server's ecall lock and thread hop"
    ),
    "write_merge": (
        "in-process inserts, deletes, merges and reads beside writes, then save and load: "
        "shows a read-side gain paid for by insert, merge, space or load time"
    ),
}

#: How long one run measures; phases split it by the shares below.
RUN_SECONDS = 12
#: Set-up is repeated this often per run and the median reported.
SETUP_REPEATS = 3
PARTITIONS = 8

ROWS = {
    "range_inproc": 50_000,
    "wide_tcp": 50_000,
    "serve_tcp": 50_000,
    "write_merge": 50_000,
}
SMOKE_ROWS = 2_000
SMOKE_SECONDS = 3

#: ``range_inproc`` scales the enclave entry cache with its row cut (rows
#: and cache both a quarter of the issue's 200 000 rows / 8 MiB) so that
#: |D| of the ED9 column stays ~1.2x the cache: the spill phase must not fit.
RANGE_CACHE_BYTES = 2 * 1024 * 1024

# -- phases: share of --seconds, minimum timed ops, warm-up ops -----------
#: (share, min_ops, warm_ops) per phase. A phase runs until its share of the
#: run has elapsed *and* min_ops are recorded — min_ops is what makes the
#: percentile it feeds legal (p95 needs 200 samples, p90 needs 100).
PHASES = {
    "range_inproc": {
        "seek": (0.40, 1000, 100),
        "plain": (0.15, 300, 50),
        "spill": (0.30, 8, 2),
    },
    "wide_tcp": {
        "ship": (0.25, 12, 2),
        "ship_plain": (0.20, 12, 2),
        "agg": (0.45, 150, 5),
    },
    "serve_tcp": {
        "closed": (0.55, 600, 40),
        "closed_plain": (0.30, 300, 40),
    },
    "write_merge": {
        # Rounds are the unit here: (share, reported_rounds, -). Exactly the
        # first ``reported_rounds`` rounds feed the metrics — insert cost
        # drifts with the round index, so a run that squeezes in one round
        # more must not report a different mix; further rounds only fill the
        # time (and are still checked against the oracle).
        "rounds": (0.85, 5, 0),
    },
}
#: An encrypted phase and its plaintext twin take turns (this many ops at a
#: time, sharing the sum of their shares) so that host drift cancels in
#: ``enc_over_plain``. Neither twin touches the enclave cache, so taking
#: turns changes nothing the phases were designed to isolate; ``spill``
#: still runs alone and last.
INTERLEAVED = {
    "range_inproc": (("seek", "plain"), 50),
    "wide_tcp": (("ship", "ship_plain"), 1),
}
#: ``serve_tcp`` alternates its two closed-loop phases in this many bursts.
SERVE_CLOSED_BURSTS = 3
#: Tail percentile printed as ``lat_tail_ms`` (fixed per workload so the
#: number never changes meaning with the sample count; min_ops backs it).
#: Measured and stored with every run but *not* a contract metric: on the
#: recording host its spread over ten seeds reached 32 %, above the largest
#: bound the contract allows (README, "Bounds, and what this host allows").
TAIL_PERCENTILE = {
    "range_inproc": 95,  # of seek
    "wide_tcp": 75,  # of agg (ship yields ~25 samples per run; agg's p90 was too noisy)
    "serve_tcp": 95,  # of the closed phase, all ops, 2 clients
    "write_merge": 90,  # of seek beside writes
}

# -- workload shapes ------------------------------------------------------
SEEK_RANGE_SIZE = 100  # consecutive unique values per seek / ship window
NARROW_RANGE_SIZE = 2  # spill and g ops
SHIP_ROWS_TOLERANCE = 0.05  # ship windows return median rows +-5 %
NARROW_ROWS_TOLERANCE = 0.25
AGG_MEASURE_DISTINCT = 400
AGG_WINDOW = 100
SERVE_NARROW_SHARE = 0.2  # 20 % g ops, 80 % seek
WRITE_PAIRS_PER_ROUND = 24
WRITE_ROWS_PER_INSERT = 10
WRITE_DELETE_ROWS = 500  # retention DELETE removes seq < 500*round
WRITE_MAX_ROUNDS = 12

# -- serve_tcp calibration (seed commit, this host; see README) -----------
SERVE_CLIENTS = 2
#: 25 / 50 / 75 % of the seed's two-client closed-loop ops/s, whole ops/s.
SERVE_RATES = {"lo": 75, "mid": 150, "hi": 225}
#: 10x the seed's single-client p50 of the same mix, rounded to 10 ms.
SERVE_LIMIT_MS = 50.0
#: Tail percentile of the open-loop phases (per-layer pass), from due time.
OPEN_TAIL_PERCENTILE = 90
#: The per-layer pass offers each rate for this many seconds.
SERVE_TRACE_PHASE_S = 4.0
#: An open-loop phase is flagged invalid when the generator itself was
#: later than this share of the phase's median latency.
LOADGEN_LAG_SHARE = 0.10

# -- traced pass: fixed op counts so exact counters repeat ----------------
TRACE_OPS = {
    "range_inproc": {"seek": 300, "plain": 300, "spill": 6},
    "wide_tcp": {"ship": 8, "ship_plain": 8, "agg": 40},
    "serve_tcp": {"seek": 320, "narrow": 80},
    "write_merge": {"rounds": 2},
}

# -- metric tables ---------------------------------------------------------
#: (name, unit, better, bound). Every workload reports every one of these.
#: Time-based metrics carry the contract's maximum bound: this host's speed
#: wanders by more than 10 % from minute to minute (README).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("rows_per_s", "rows/s", "higher", 0.25),
    ("alt_p50_ms", "ms", "lower", 0.25),
    ("enc_over_plain", "ratio", "lower", 0.15),
    ("stored_bytes_per_row", "B/row", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: Span-derived times, reported per role (primary op, ``.alt``, ``.write``).
_SPAN_TIMES = [
    "op_ms",
    "sql.parse_plan_ms",
    "client.proxy.encrypt_ms",
    "client.proxy.decrypt_ms",
    "client.proxy.self_ms",
    "net.rtt_ms",
    "net.encode_ms",
    "net.decode_ms",
    "net.self_ms",
    "sql.executor.select_ms",
    "sql.executor.self_ms",
    "sgx.ecall_ms",
    "encdict.attrvect.scan_ms",
]
_ROLE_COUNTS = [
    ("crypto.pae.encrypts_per_op", "count"),
    ("crypto.pae.decrypts_per_op", "count"),
    ("client.proxy.rows_out_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.frames_per_op", "count"),
    ("sgx.ecalls_per_op", "count"),
    ("encdict.decryptions_per_op", "count"),
    ("encdict.comparisons_per_op", "count"),
    ("encdict.untrusted_loads_per_op", "count"),
    ("sgx.cache.hit_rate", "ratio"),
    ("sgx.cache.evictions_per_op", "count"),
    ("sgx.epc_page_faults_per_op", "count"),
]
_WRITE_ROLE = [
    ("op_ms", "ms"),
    ("client.proxy.encrypt_ms", "ms"),
    ("sgx.ecall_ms", "ms"),
    ("crypto.pae.encrypts_per_op", "count"),
    ("sgx.ecalls_per_op", "count"),
]
_HIGHER = {
    "sgx.cache.hit_rate",
    "encdict.build.rows_per_s",
    "columnstore.merge.rows_per_s",
    "columnstore.merge.partitions_kept",
    "loadgen.slo_rate_ops",
    "runtime.dispatch.parallel_frac",
}


def _per_layer() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str]] = []
    for suffix in ("", ".alt"):
        rows += [(name + suffix, "ms") for name in _SPAN_TIMES]
        rows += [(name + suffix, unit) for name, unit in _ROLE_COUNTS]
    rows += [(name + ".write", unit) for name, unit in _WRITE_ROLE]
    rows += [
        ("sgx.cache.peak_bytes", "B"),
        ("runtime.dispatch.parallel_frac", "ratio"),
        ("encdict.build.rows_per_s", "rows/s"),
        ("encdict.build.encrypt_ops", "count"),
        ("columnstore.delta_rows_at_read", "count"),
        ("columnstore.merge.partitions_rebuilt", "count"),
        ("columnstore.merge.partitions_kept", "count"),
        ("columnstore.merge.rows_per_s", "rows/s"),
        ("columnstore.storage.save_ms", "ms"),
        ("columnstore.storage.load_ms", "ms"),
        ("columnstore.storage.bytes", "B"),
        ("net.server.wait_ms.lo", "ms"),
        ("net.server.wait_ms.mid", "ms"),
        ("net.server.wait_ms.hi", "ms"),
        ("net.server.busy_refusals", "count"),
        ("net.client.retries", "count"),
        ("loadgen.lag_tail_ms", "ms"),
        ("loadgen.backlog_max", "count"),
        ("loadgen.achieved_rate.lo", "ops/s"),
        ("loadgen.achieved_rate.mid", "ops/s"),
        ("loadgen.achieved_rate.hi", "ops/s"),
        ("loadgen.open_p50_ms.mid", "ms"),
        ("loadgen.open_tail_ms.mid", "ms"),
        ("loadgen.open_tail_ms.hi", "ms"),
        ("loadgen.slo_rate_ops", "ops/s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.self_sum_error", "ratio"),
    ]
    return [
        (name, unit, "higher" if name.split(".alt")[0] in _HIGHER else "lower")
        for name, unit in rows
    ]


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contract file, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
