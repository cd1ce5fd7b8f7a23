"""The open-loop generator against a fake server with a 10 ms service time."""

import threading
import time

import numpy as np

from benchmarks.e2e.loadgen import (
    closed_loop,
    open_loop,
    poisson_schedule,
    summarize_open,
)

SERVICE_S = 0.010
CLIENTS = 2  # capacity = 2 / 10 ms = 200 requests/s


def _fake_clients(seen_threads=None):
    def client(op):
        if seen_threads is not None:
            seen_threads.add(threading.current_thread().name)
        time.sleep(SERVICE_S)
        return op

    return [client] * CLIENTS


def test_schedule_is_fixed_by_the_seed():
    first = poisson_schedule(100.0, 2.0, seed=5)
    assert np.array_equal(first, poisson_schedule(100.0, 2.0, seed=5))
    assert not np.array_equal(first, poisson_schedule(100.0, 2.0, seed=6))
    assert 120 < len(first) < 290 and first[-1] < 2.0
    assert np.all(np.diff(first) > 0)


def test_half_load_latency_is_the_service_time():
    due = poisson_schedule(100.0, 2.0, seed=1)  # 50 % of capacity
    threads_before = threading.active_count()
    seen = set()
    result = open_loop(_fake_clients(seen), list(range(len(due))), due)
    assert threading.active_count() == threads_before  # workers joined
    assert seen == {"loadgen-0", "loadgen-1"}  # exactly one thread per connection
    summary = summarize_open(result, due, limit_ms=50.0)
    assert summary["failed"] == 0 and summary["completed"] == len(due)
    assert SERVICE_S * 1e3 <= summary["p50_ms"] < SERVICE_S * 1e3 * 1.6
    assert not summary["backlog_growing"]
    assert summary["meets_limit"]
    assert summary["lag_tail_ms"] < 5.0


def test_overload_grows_a_backlog_and_misses_the_limit():
    due = poisson_schedule(300.0, 1.5, seed=2)  # 150 % of capacity
    result = open_loop(_fake_clients(), list(range(len(due))), due)
    summary = summarize_open(result, due, limit_ms=50.0)
    assert summary["backlog_growing"]
    assert summary["backlog_end"] > summary["backlog_mid"] + 2
    assert not summary["meets_limit"]
    # Timed from the due time, the queueing shows; from the start it would not.
    assert summary["p50_ms"] > 5 * summary["service_p50_ms"]


def test_failed_or_abandoned_requests_miss_the_limit():
    def flaky(op):
        time.sleep(0.001)
        if op == 3:
            raise RuntimeError("boom")
        return op

    due = poisson_schedule(200.0, 0.5, seed=3)
    result = open_loop(
        [flaky, flaky], list(range(len(due))), due, check=lambda op, reply: reply != 4
    )
    assert result.failed == 2
    assert result.errors == ["RuntimeError: boom"]
    assert not summarize_open(result, due, limit_ms=1000.0)["meets_limit"]


def test_closed_loop_runs_for_the_budget_and_the_minimum():
    ops = [list(range(1000)), list(range(1000))]
    result = closed_loop(_fake_clients(), ops, budget_s=0.3, min_ops=10)
    assert result.failed == 0
    assert 40 <= len(result.records) <= 64  # ~2 clients x 0.3 s / 10 ms
    assert {record.worker for record in result.records} == {0, 1}
    short = closed_loop(_fake_clients(), ops, budget_s=0.0, min_ops=20)
    assert 20 <= len(short.records) <= 22
