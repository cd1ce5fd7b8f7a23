"""The per-layer pass (``--trace 1``): spans plus exact counters per op.

Each workload's op lists are replayed single-client, closed-loop, with a
**fixed number of ops** (``spec.TRACE_OPS``) so that counters repeat exactly
for a fixed seed, and with the server in this process
(``ServerThread(NetServer())`` for the two TCP workloads) so that spans on
both sides of the socket share one clock. Around every op the pass reads the
exact counters the system already exposes — the enclave cost model, the
entry-cache statistics, the connection's frame tap, the runtime's dispatch
log — and attributes the difference to the op's kind.

Metric names carry a role suffix: none for the workload's primary op,
``.alt`` for its second op, ``.write`` for INSERT (``write_merge`` only).
A layer a workload bypasses reports 0.

``serve_tcp`` additionally runs the real thing — server child, two
connections, open loop at ``lo``/``mid``/``hi`` — untraced, because queueing
on the server's ecall lock only exists under concurrency: that is where the
``net.server.wait_ms.*`` and ``loadgen.*`` rows come from.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

from benchmarks.e2e import spec
from benchmarks.e2e.harness import (
    BenchmarkError,
    Op,
    PhaseResult,
    connect,
    deploy_colocated,
    run_fixed,
    timed_op,
)
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.trace import (
    SELF_TIME_TOLERANCE,
    Tracer,
    layer_count,
    layer_ms,
    summarize,
)
from benchmarks.e2e.workloads import ServeTcp, Workload

#: op kind -> role suffix, per workload.
ROLES = {
    "range_inproc": {"seek": "", "spill": ".alt"},
    "wide_tcp": {"ship": "", "agg": ".alt"},
    "serve_tcp": {"seek": "", "narrow": ".alt"},
    "write_merge": {"seek": "", "merge": ".alt", "insert": ".write"},
}


class Probe:
    """Reads the system's own exact counters; differences go to an op kind."""

    def __init__(self, dbms, connection=None) -> None:
        self._dbms = dbms
        # The enclave object is only reachable in-process, and only through
        # the server's private attribute: there is no stats verb yet
        # (ROADMAP item 1 adds ``server_stats``).
        self._enclave = getattr(dbms, "_enclave")
        self._net = [0, 0]
        if connection is not None:
            connection.tap = self._tap
        self.per_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _tap(self, direction: str, frame_type, payload: bytes) -> None:
        self._net[0] += len(payload)
        self._net[1] += 1

    def read(self) -> dict[str, float]:
        from repro.runtime import dispatch_stats

        counters = {
            key: value
            for key, value in self._dbms.cost_snapshot().items()
            if isinstance(value, (int, float))
        }
        cache = self._enclave.fastpath_stats() or {}
        for key in ("hits", "misses", "evictions"):
            counters[f"cache_{key}"] = cache.get(key, 0)
        counters["net_bytes"], counters["net_frames"] = self._net
        dispatch = dispatch_stats().values()
        counters["dispatch_serial"] = sum(log.get("serial", 0) for log in dispatch)
        counters["dispatch_parallel"] = sum(log.get("parallel", 0) for log in dispatch)
        return counters

    def charge(self, kind: str, before: dict, after: dict) -> None:
        bucket = self.per_kind[kind]
        for key, value in after.items():
            bucket[key] += value - before.get(key, 0)

    def peak_cache_bytes(self) -> float:
        return float((self._enclave.fastpath_stats() or {}).get("peak_bytes", 0))


def replay(
    execute: Callable[[str], Any],
    ops: Sequence[Op],
    phases: dict[str, PhaseResult],
    tracer: Tracer,
    probe: Probe,
    op_base: int,
) -> int:
    """Traced, probed, fixed-count replay; returns the next free op id."""
    for index, op in enumerate(ops):
        before = probe.read()
        timed_op(execute, op, phases.setdefault(op.kind, PhaseResult(op.kind)), tracer, op_base + index)
        probe.charge(op.kind, before, probe.read())
    return op_base + len(ops)


def role_metrics(summary: dict, counters: dict, ops: int, rows: int) -> dict[str, float]:
    """The role-suffixed rows of the per-layer table for one op kind."""
    proxy_encrypt = (
        layer_ms(summary, "client.proxy.encrypt_bounds")
        + layer_ms(summary, "crypto.pae.encrypt@client.proxy.execute")
    )
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    return {
        "op_ms": summary["op_ms"],
        "sql.parse_plan_ms": layer_ms(summary, "sql.parse") + layer_ms(summary, "sql.plan"),
        "client.proxy.encrypt_ms": proxy_encrypt,
        "client.proxy.decrypt_ms": layer_ms(summary, "crypto.pae.decrypt@client.proxy.execute"),
        "client.proxy.self_ms": layer_ms(summary, "client.proxy.execute", own=True),
        "net.rtt_ms": layer_ms(summary, "net.rtt"),
        "net.encode_ms": layer_ms(summary, "net.encode"),
        "net.decode_ms": layer_ms(summary, "net.decode"),
        # Wire, framing, the server's codec, its ecall-lock queue and thread
        # hop: the round trip minus client codec and the server's execution.
        "net.self_ms": layer_ms(summary, "net.rtt", own=True)
        + layer_ms(summary, "net.server."),
        "sql.executor.select_ms": layer_ms(summary, "sql.executor."),
        "sql.executor.self_ms": layer_ms(summary, "sql.executor.", own=True),
        "sgx.ecall_ms": layer_ms(summary, "sgx.ecall."),
        "encdict.attrvect.scan_ms": layer_ms(summary, "encdict.attrvect.scan"),
        # PAE operations of the trusted client side only; the enclave's are
        # ``encdict.decryptions_per_op`` (cost model).
        "crypto.pae.encrypts_per_op": layer_count(summary, "crypto.pae.encrypt@client.proxy."),
        "crypto.pae.decrypts_per_op": layer_count(summary, "crypto.pae.decrypt@client.proxy."),
        "client.proxy.rows_out_per_op": rows / ops,
        "net.bytes_per_op": counters["net_bytes"] / ops,
        "net.frames_per_op": counters["net_frames"] / ops,
        "sgx.ecalls_per_op": counters["ecalls"] / ops,
        "encdict.decryptions_per_op": counters["decryptions"] / ops,
        "encdict.comparisons_per_op": counters["comparisons"] / ops,
        "encdict.untrusted_loads_per_op": counters["untrusted_loads"] / ops,
        "sgx.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "sgx.cache.evictions_per_op": counters["cache_evictions"] / ops,
        "sgx.epc_page_faults_per_op": counters["epc_page_faults"] / ops,
    }


def _finish(
    workload: Workload,
    metrics: dict[str, float],
    tracer: Tracer,
    probe: Probe,
    phases: dict[str, PhaseResult],
    untraced_p50: float,
    primary: str,
) -> dict:
    """Fold spans and counters into the flat per-layer table; dump the trace."""
    summary = summarize(tracer.spans)
    role_names = {name for name, _, _ in spec.PER_LAYER}
    for kind, suffix in ROLES[workload.name].items():
        if kind not in summary:
            raise BenchmarkError(f"traced pass recorded no {kind!r} op")
        ops = summary[kind]["ops"]
        for name, value in role_metrics(
            summary[kind], probe.per_kind[kind], ops, phases[kind].rows
        ).items():
            if name + suffix in role_names:
                metrics[name + suffix] = value
    worst = max(entry["self_sum_error"] for entry in summary.values())
    if worst > SELF_TIME_TOLERANCE:
        raise BenchmarkError(
            f"self times miss the op wall time by {worst:.1%} (> {SELF_TIME_TOLERANCE:.0%})"
        )
    totals = defaultdict(float)
    for bucket in probe.per_kind.values():
        for key, value in bucket.items():
            totals[key] += value
    dispatched = totals["dispatch_serial"] + totals["dispatch_parallel"]
    metrics["runtime.dispatch.parallel_frac"] = (
        totals["dispatch_parallel"] / dispatched if dispatched else 0.0
    )
    metrics["sgx.cache.peak_bytes"] = probe.peak_cache_bytes()
    metrics["trace.self_sum_error"] = worst
    metrics["trace.overhead_frac"] = phases[primary].p50_ms() / untraced_p50 - 1.0
    workload.phases = list(phases.values())
    workload.notes["layers"] = summary
    workload.notes["counters"] = {kind: dict(b) for kind, b in probe.per_kind.items()}
    workload.notes["untraced_p50_ms"] = untraced_p50
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(
        spec.OUT_DIR / f"trace-{workload.name}.json",
        meta={"workload": workload.name, "seed": workload.seed, "summary": summary},
    )
    return metrics


def _timed_build(workload: Workload, build: Callable[[], Any], metrics: dict) -> Any:
    """Stand the system up once, timing the data owner's EncDB build."""
    start = time.perf_counter()
    system = build()
    metrics["encdict.build.rows_per_s"] = workload.rows / (time.perf_counter() - start)
    metrics["encdict.build.encrypt_ops"] = float(system.owner.pae.encrypt_count)
    return system


def _replay_pass(
    workload: Workload,
    metrics: dict,
    system,
    probe: Probe,
    ops: dict[str, Sequence[Op]],
    sandwiched: tuple[str, ...],
    last: str | None = None,
    before_last: Callable[[], None] | None = None,
) -> dict:
    """Replay fixed op lists traced and probed, kind after kind.

    The ``sandwiched`` kinds are replayed between two untraced replays of
    the primary kind (``sandwiched[0]``): the mean of those two p50s is the
    base of ``trace.overhead_frac``, which cancels the drift a warming cache
    would otherwise book as (negative) tracing overhead. ``last`` runs after
    that, for a kind that would disturb the others (it flushes the cache, or
    needs pushdown switched on by ``before_last``).
    """
    tracer = Tracer()
    phases: dict[str, PhaseResult] = {}
    next_id = 0

    def traced(kinds: Sequence[str]) -> None:
        nonlocal next_id
        with tracer:
            for kind in kinds:
                next_id = replay(system.execute, ops[kind], phases, tracer, probe, next_id)

    primary = sandwiched[0]
    before = run_fixed("untraced", system.execute, ops[primary]).p50_ms()
    traced(sandwiched)
    after = run_fixed("untraced", system.execute, ops[primary]).p50_ms()
    if last is not None:
        if before_last is not None:
            before_last()
        traced((last,))
    return _finish(workload, metrics, tracer, probe, phases, (before + after) / 2.0, primary)


def _trace_ops(workload: Workload, pick: Callable[[str], Sequence[Op]]) -> dict[str, Sequence[Op]]:
    """The fixed op count of every traced kind (a tenth under ``--smoke``)."""
    return {
        kind: pick(kind)[: max(2, count // 10) if workload.smoke else count]
        for kind, count in spec.TRACE_OPS[workload.name].items()
    }


# ----------------------------------------------------------------------
def _range_inproc(workload, metrics: dict) -> dict:
    system = _timed_build(workload, workload.build, metrics)
    try:
        return _replay_pass(
            workload, metrics, system, Probe(system.server),
            _trace_ops(workload, workload.ops.__getitem__),
            ("seek", "plain"), last="spill",  # spill last: it flushes the entry cache
        )
    finally:
        workload.teardown(system)


def _colocated(workload, metrics: dict):
    """A co-located server thread plus one client: (handle, system, probe)."""
    handle = deploy_colocated()
    try:
        system = _timed_build(
            workload, lambda: _connect_and_load(workload, handle.port), metrics
        )
    except BaseException:
        handle.stop()
        raise
    return handle, system, Probe(handle.server.dbms, system.server.connection)


def _connect_and_load(workload, port: int):
    system = connect(port, workload.seed)
    try:
        workload.load(system)
    except BaseException:
        system.close()
        raise
    return system


def _wide_tcp(workload, metrics: dict) -> dict:
    handle, system, probe = _colocated(workload, metrics)
    try:
        return _replay_pass(
            workload, metrics, system, probe,
            _trace_ops(workload, workload.ops.__getitem__),
            ("ship", "ship_plain"), last="agg",
            before_last=lambda: system.proxy.enable_pushdown(True),
        )
    finally:
        system.close()
        handle.stop()


def _serve_tcp(workload: ServeTcp, metrics: dict) -> dict:
    handle, system, probe = _colocated(workload, metrics)
    try:
        # One kind after the other here, so counters split cleanly by kind;
        # a single client has no queueing for the mix to expose anyway.
        _replay_pass(
            workload, metrics, system, probe,
            _trace_ops(workload, lambda kind: [op for op in workload.mix if op.kind == kind]),
            ("seek", "narrow"),
        )
    finally:
        system.close()
        handle.stop()
    _serve_under_load(workload, metrics)
    return metrics


def _serve_under_load(workload: ServeTcp, metrics: dict) -> None:
    """The real deployment under open-loop load at ``lo``/``mid``/``hi``."""
    from repro.exceptions import ServerBusyError

    deployment = workload.build()
    try:
        _, systems = deployment
        sent = [0]

        def count_queries(direction: str, frame_type, payload: bytes) -> None:
            if direction == "send" and frame_type.name == "QUERY":
                sent[0] += 1

        for system in systems:
            system.server.connection.tap = count_queries
        duration = spec.SERVE_TRACE_PHASE_S * (0.4 if workload.smoke else 1.0)
        ops = workload.mix
        single = run_fixed(
            "single", systems[0].execute, ops[: 30 if workload.smoke else 300]
        )
        cursor = len(single.latencies)
        single_p50 = single.p50_ms()
        phases = [single]
        summaries = {}
        for name, rate in workload.rates.items():
            needed = int(rate * duration * 1.5) + 32
            phase, summary = workload.open_phase(
                f"open_{name}", systems, ops[cursor : cursor + needed], rate, duration
            )
            cursor += needed
            phases.append(phase)
            summaries[name] = summary
            metrics[f"loadgen.achieved_rate.{name}"] = summary["achieved_rate"]
        # Expected waiting per request: the share of requests that overlapped
        # another connection's times how much longer their median service
        # time is than that of requests that ran alone. The "alone" group is
        # pooled over the three rates — at ``hi`` hardly any request is alone.
        alone = [ms for summary in summaries.values() for ms in summary.pop("alone_ms")]
        for name, summary in summaries.items():
            shared = summary.pop("shared_ms")
            summary["overlap_share"] = len(shared) / max(1, summary["completed"])
            summary["wait_ms"] = (
                summary["overlap_share"] * (percentile(shared, 50) - percentile(alone, 50))
                if shared and alone
                else 0.0
            )
            metrics[f"net.server.wait_ms.{name}"] = summary["wait_ms"]
        issued = sum(phase.attempted for phase in phases)
        errors = [error for phase in phases for error in phase.errors]
        metrics["net.server.busy_refusals"] = float(
            sum(1 for error in errors if ServerBusyError.__name__ in error)
        )
        metrics["net.client.retries"] = float(max(0, sent[0] - issued))
        metrics["loadgen.lag_tail_ms"] = max(s["lag_tail_ms"] for s in summaries.values())
        metrics["loadgen.backlog_max"] = float(max(s["backlog_max"] for s in summaries.values()))
        metrics["loadgen.open_p50_ms.mid"] = summaries["mid"]["p50_ms"]
        metrics["loadgen.open_tail_ms.mid"] = summaries["mid"]["tail_ms"]
        metrics["loadgen.open_tail_ms.hi"] = summaries["hi"]["tail_ms"]
        met = [workload.rates[name] for name, s in summaries.items() if s["meets_limit"]]
        metrics["loadgen.slo_rate_ops"] = float(max(met, default=0.0))
        workload.phases += phases
        workload.notes["open_loop"] = summaries
        workload.notes["single_client_p50_ms"] = single_p50
    finally:
        workload.teardown(deployment)


def _write_merge(workload, metrics: dict) -> dict:
    rounds = spec.TRACE_OPS[workload.name]["rounds"]
    system = _timed_build(workload, workload.build, metrics)
    try:
        probe = Probe(system.server)
        tracer = Tracer()
        phases: dict[str, PhaseResult] = {}
        # Untraced first round, traced second, untraced third: the seek p50
        # of rounds 1 and 3 brackets the traced one.
        untraced: dict[str, PhaseResult] = {}
        workload.run_round(system, workload.rounds[0], untraced)
        before = untraced["seek"].p50_ms()
        delta_rows = []
        next_id = 0
        with tracer:
            for index in range(1, 1 + rounds):
                for op in workload.rounds[index]:
                    if op.kind == "seek":
                        delta_rows.append(_delta_rows(system, workload.table))
                    next_id = replay(system.execute, [op], phases, tracer, probe, next_id)
                stats = system.server.executor.last_merge_stats
                metrics["columnstore.merge.partitions_rebuilt"] = float(stats.partitions_rebuilt)
                metrics["columnstore.merge.partitions_kept"] = float(stats.partitions_kept)
        untraced = {}
        workload.run_round(system, workload.rounds[1 + rounds], untraced)
        baseline = (before + untraced["seek"].p50_ms()) / 2.0
        merge_s = statistics.median(phases["merge"].latencies)
        metrics["columnstore.merge.rows_per_s"] = workload.rounds[rounds][-1].expect / merge_s
        metrics["columnstore.delta_rows_at_read"] = statistics.mean(delta_rows)
        reload_phase, storage = workload.reload(
            system, workload.rounds[1 + rounds][-1].expect, workload.probes[1 + rounds]
        )
        metrics["columnstore.storage.save_ms"] = storage["save_ms"]
        metrics["columnstore.storage.load_ms"] = storage["load_ms"]
        metrics["columnstore.storage.bytes"] = float(storage["bytes"])
        phases["reload"] = reload_phase
        return _finish(workload, metrics, tracer, probe, phases, baseline, "seek")
    finally:
        workload.teardown(system)


def _delta_rows(system, table: str) -> int:
    """Rows currently in the table's delta store (read beside writes)."""
    from repro.columnstore.merge_policy import delta_row_count

    return delta_row_count(system.server.catalog.table(table))


_PASSES = {
    "range_inproc": _range_inproc,
    "wide_tcp": _wide_tcp,
    "serve_tcp": _serve_tcp,
    "write_merge": _write_merge,
}


def per_layer_pass(workload: Workload) -> dict[str, float]:
    metrics = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    return _PASSES[workload.name](workload, metrics)
