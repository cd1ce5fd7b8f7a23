"""The benchmark's own load generator: closed loop and open loop.

A *closed* loop sends a client's next request only after the previous one
completed, so a slower system is offered less load. An *open* loop sends on a
precomputed schedule regardless; its queue can grow, and every request is
timed **from the moment it was due**, which charges a stall to every request
it delayed (choosing-metrics §5).

Both loops drive ``clients`` — one callable per connection, each owned by
exactly one worker thread — so the generator never holds a thread or a
connection beyond the client count it was given. There is no dispatcher
thread: the open loop's dispatcher is a cursor over the precomputed schedule
that the free worker advances under a lock, i.e. "whichever connection is
free takes the next due request". The backlog is reconstructed afterwards
from the request records (exact, and free of a sampling thread).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from benchmarks.e2e.stats import highest_supported_percentile, percentile

#: Backlog sampling period when reconstructing the queue from the records.
BACKLOG_PERIOD_S = 0.1
#: Backlog may end a phase this much above its midpoint and still be "flat".
BACKLOG_SLACK = 2
#: After the schedule ends, requests not yet issued this late are abandoned
#: (and count as failed): an overloaded phase must not run forever.
DRAIN_GRACE_S = 1.0

#: ``client(op) -> result``: run one request on one connection. Raising
#: counts as a failed request.
Client = Callable[[Any], Any]
#: ``check(op, result) -> bool``: was the result correct? Runs after the
#: request's end time is taken, so checking never counts as latency.
Check = Callable[[Any, Any], bool]


@dataclass
class Record:
    """One request: all times are seconds since the phase started."""

    index: int
    worker: int
    due: float
    start: float
    end: float
    ok: bool
    free_since: float  # when this worker was done with its previous request
    kind: str | None = None


@dataclass
class LoopResult:
    records: list[Record] = field(default_factory=list)
    scheduled: int = 0
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Raised, incorrect, or never issued before the drain deadline."""
        done_ok = sum(1 for record in self.records if record.ok)
        return self.scheduled - done_ok


def poisson_schedule(rate: float, duration_s: float, seed: int) -> np.ndarray:
    """Due times (s) of a Poisson arrival process, fixed before the phase."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    generator = np.random.Generator(np.random.PCG64(seed))
    # Draw comfortably more gaps than needed, then cut at the duration.
    count = int(rate * duration_s * 1.5) + 32
    due = np.cumsum(generator.exponential(1.0 / rate, size=count))
    while due[-1] < duration_s:  # pragma: no cover - 1.5x margin makes this rare
        more = np.cumsum(generator.exponential(1.0 / rate, size=count)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration_s]


#: Interpreter switch interval while worker threads run. A worker waking for
#: a due request must take the interpreter lock from the other worker; at the
#: default 5 ms that wait alone would be the generator's lateness.
SWITCH_INTERVAL_S = 0.0002


def _run_workers(worker: Callable[[int], None], count: int) -> None:
    threads = [
        threading.Thread(target=worker, args=(index,), name=f"loadgen-{index}")
        for index in range(count)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)


def _issue(
    client: Client, check: Check, op: Any, origin: float,
    result: LoopResult, lock: threading.Lock,
) -> tuple[float, bool]:
    """Run one request; returns (end time, correct). The check is untimed."""
    try:
        reply = client(op)
    except Exception as exc:  # noqa: BLE001 - a failed request, reported
        end = time.perf_counter() - origin
        with lock:
            if len(result.errors) < 5:
                result.errors.append(f"{type(exc).__name__}: {exc}")
        return end, False
    end = time.perf_counter() - origin
    return end, bool(check(op, reply))


def _accept(op: Any, reply: Any) -> bool:
    return True


def open_loop(
    clients: Sequence[Client], ops: Sequence[Any], due: np.ndarray, check: Check = _accept
) -> LoopResult:
    """Offer ``ops[i]`` at ``due[i]``; each free client takes the next one."""
    if len(ops) < len(due):
        raise ValueError("fewer ops than scheduled arrivals")
    result = LoopResult(scheduled=len(due))
    lock = threading.Lock()
    cursor = [0]
    deadline = (float(due[-1]) if len(due) else 0.0) + DRAIN_GRACE_S
    origin = time.perf_counter()

    def worker(worker_index: int) -> None:
        client = clients[worker_index]
        free_since = 0.0
        while True:
            with lock:
                index = cursor[0]
                if index >= len(due):
                    return
                cursor[0] = index + 1
            due_at = float(due[index])
            wait = due_at - (time.perf_counter() - origin)
            if wait > 0:
                time.sleep(wait)
            start = time.perf_counter() - origin
            if start > deadline:
                return  # abandoned: counted as failed via ``scheduled``
            end, ok = _issue(client, check, ops[index], origin, result, lock)
            record = Record(
                index, worker_index, due_at, start, end, ok, free_since,
                getattr(ops[index], "kind", None),
            )
            with lock:
                result.records.append(record)
            free_since = time.perf_counter() - origin

    _run_workers(worker, len(clients))
    result.wall_s = time.perf_counter() - origin
    result.records.sort(key=lambda record: record.index)
    return result


def closed_loop(
    clients: Sequence[Client],
    ops: Sequence[Sequence[Any]],
    *,
    budget_s: float,
    min_ops: int = 0,
    check: Check = _accept,
) -> LoopResult:
    """Each client runs its own op list back-to-back for ``budget_s``.

    Every client keeps going until the time budget is spent *and* the clients
    together completed ``min_ops`` requests (or its list is exhausted).
    """
    result = LoopResult()
    lock = threading.Lock()
    done = [0]
    origin = time.perf_counter()

    def worker(worker_index: int) -> None:
        client = clients[worker_index]
        free_since = 0.0
        for index, op in enumerate(ops[worker_index]):
            start = time.perf_counter() - origin
            with lock:
                if start >= budget_s and done[0] >= min_ops:
                    return
                result.scheduled += 1
            end, ok = _issue(client, check, op, origin, result, lock)
            record = Record(
                index, worker_index, start, start, end, ok, free_since,
                getattr(op, "kind", None),
            )
            with lock:
                result.records.append(record)
                done[0] += 1
            free_since = time.perf_counter() - origin

    _run_workers(worker, len(clients))
    result.wall_s = time.perf_counter() - origin
    return result


def backlog_series(result: LoopResult, due: np.ndarray) -> list[int]:
    """Requests due but not yet completed, sampled every 100 ms."""
    if not len(due):
        return []
    ends = np.sort(np.array([record.end for record in result.records]))
    horizon = max(float(due[-1]), float(ends[-1]) if len(ends) else 0.0)
    ticks = np.arange(BACKLOG_PERIOD_S, horizon + BACKLOG_PERIOD_S, BACKLOG_PERIOD_S)
    arrived = np.searchsorted(due, ticks, side="right")
    completed = np.searchsorted(ends, ticks, side="right")
    return (arrived - completed).tolist()


def split_by_overlap(records: Sequence[Record]) -> tuple[list[float], list[float]]:
    """Service times (ms) of requests that ran alone / that overlapped.

    A request that overlapped another connection's request had to share the
    server (its ecall lock, its worker-thread hop, the cores); one that ran
    alone did not. Comparing the two groups is how waiting *inside* the
    server is seen from outside it.
    """
    by_worker: dict[int, list[Record]] = {}
    for record in records:
        by_worker.setdefault(record.worker, []).append(record)
    alone, shared = [], []
    for record in records:
        overlapped = any(
            other.start < record.end and other.end > record.start
            for worker, others in by_worker.items()
            if worker != record.worker
            for other in others
        )
        (shared if overlapped else alone).append((record.end - record.start) * 1e3)
    return alone, shared


def summarize_open(
    result: LoopResult,
    due: np.ndarray,
    *,
    limit_ms: float,
    tail_percentile: float | None = None,
) -> dict:
    """Latency from due time, generator lateness, backlog, and the verdict.

    ``meets_limit`` requires every request to have succeeded, the tail
    percentile (p99 with >= 1 000 samples, else p95, else p90) to be within
    ``limit_ms`` and the backlog not to grow: at the end of the schedule it
    may exceed its value at the midpoint by at most :data:`BACKLOG_SLACK`.
    """
    records = result.records
    latencies = [(record.end - record.due) * 1e3 for record in records]
    # Lateness of the generator itself: how long after the request could
    # first have been issued (it was due *and* this connection was free) it
    # actually was issued. Waiting for a busy connection is not lateness.
    lags = [
        (record.start - max(record.due, record.free_since)) * 1e3 for record in records
    ]
    duration = float(due[-1]) if len(due) else 0.0
    series = backlog_series(result, due)
    in_schedule = series[: max(1, int(round(duration / BACKLOG_PERIOD_S)))]
    backlog_mid = in_schedule[len(in_schedule) // 2] if in_schedule else 0
    backlog_end = in_schedule[-1] if in_schedule else 0
    growing = backlog_end > backlog_mid + BACKLOG_SLACK
    if tail_percentile is None:
        tail_percentile = highest_supported_percentile(len(latencies))
    summary = {
        "scheduled": result.scheduled,
        "completed": len(records),
        "failed": result.failed,
        "offered_rate": len(due) / duration if duration else 0.0,
        "achieved_rate": len(records) / result.wall_s if result.wall_s else 0.0,
        "tail_percentile": tail_percentile,
        "backlog_max": max(series, default=0),
        "backlog_mid": backlog_mid,
        "backlog_end": backlog_end,
        "backlog_growing": growing,
        "limit_ms": limit_ms,
        "errors": result.errors,
    }
    summary["alone_ms"], summary["shared_ms"] = split_by_overlap(records)
    if latencies:
        summary["p50_ms"] = percentile(latencies, 50)
        summary["tail_ms"] = percentile(latencies, tail_percentile)
        summary["service_p50_ms"] = percentile(
            [(record.end - record.start) * 1e3 for record in records], 50
        )
        summary["lag_tail_ms"] = percentile(
            lags, highest_supported_percentile(len(lags))
        )
    summary["meets_limit"] = bool(
        latencies
        and result.failed == 0
        and not growing
        and summary["tail_ms"] <= limit_ms
    )
    return summary
