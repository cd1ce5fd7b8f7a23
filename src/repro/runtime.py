"""The build fan-out setting and the shared worker-pool registry.

One deployment setting sizes the data owner's *build* pipeline
(``repro.encdict.pipeline``) — the only CPU fan-out in the system; scans
and merge preparation run in the thread that calls them. It is resolved
in priority order:

1. an explicit ``max_workers`` passed to the pipeline,
2. the ``ENCDBDB_BUILD_WORKERS`` environment variable,
3. the built-in default of :data:`DEFAULT_WORKERS`.

Pools in the registry below are named, created lazily, resized only upward
(an executor serving in-flight work is never shrunk), and torn down
idempotently — :func:`shutdown_pools` may race with itself, with
:func:`shared_pool`, and with late ``shutdown_pool`` calls without
double-shutdown or leaked executors. All registry state is guarded by
:data:`_pools_lock`; executor ``shutdown()`` itself runs outside the lock
so a ``wait=True`` teardown cannot block pool creation on other threads.

This module deliberately has no repro-internal imports so every layer
(``encdict.pipeline``, ``cluster.router``, ``bench.stats``) can use it
without creating an import cycle.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

#: Built-in build fan-out when neither the caller nor the environment says
#: otherwise.
DEFAULT_WORKERS = 4

#: Environment variable overriding the default worker count.
WORKERS_ENV = "ENCDBDB_BUILD_WORKERS"

_logger = logging.getLogger("repro.runtime")

#: Registry names of the long-lived pools.
BUILD_THREAD_POOL = "build-thread"
CLUSTER_POOL = "cluster-scatter"

_pools_lock = threading.RLock()
_pools: dict[str, Executor] = {}  # guarded-by: _pools_lock
_pool_workers: dict[str, int] = {}  # guarded-by: _pools_lock


def detected_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


_clamp_lock = threading.Lock()
_clamp_logged = False  # guarded-by: _clamp_lock


def _log_clamp_once(workers: int, cores: int) -> None:
    """Report the cpu-count clamp exactly once per process."""
    global _clamp_logged
    with _clamp_lock:
        if _clamp_logged:
            return
        _clamp_logged = True
    _logger.info(
        "worker default clamped from %d to %d (%d CPU core(s) available; "
        "set %s to override)",
        DEFAULT_WORKERS,
        workers,
        cores,
        WORKERS_ENV,
    )


def configured_workers() -> int:
    """Resolve the build worker count (always at least 1).

    A malformed environment value is ignored rather than fatal — a typo in
    an operator's shell must not take a load down — and the resolved value
    is clamped to ``>= 1`` so pool construction never fails. An environment
    value is taken as operator intent; the built-in default is additionally
    clamped to the detected CPU count, so an unconfigured 1-core host never
    asks for a 4-worker pool. The clamp is logged once per process.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    cores = detected_cores()
    workers = max(1, min(DEFAULT_WORKERS, cores))
    if workers < DEFAULT_WORKERS:
        _log_clamp_once(workers, cores)
    return workers


def shared_pool(
    name: str,
    max_workers: int,
    *,
    thread_name_prefix: str | None = None,
) -> Executor:
    """The named process-wide thread pool, created or grown on demand.

    Creating an executor per call would cost more than the fan-out saves,
    so each name maps to one long-lived pool. A request for more workers
    than the current pool has replaces it (the old pool drains in the
    background); a request for fewer reuses the larger pool — resizing is
    upward-only.
    """
    stale: Executor | None = None
    with _pools_lock:
        pool = _pools.get(name)
        if pool is None or _pool_workers.get(name, 0) < max_workers:
            stale = pool
            pool = ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix=thread_name_prefix or f"encdbdb-{name}",
            )
            _pools[name] = pool
            _pool_workers[name] = max_workers
    if stale is not None:
        stale.shutdown(wait=False)
    return pool


def active_pool(name: str) -> Executor | None:
    """The live executor registered under ``name``, if any (no creation)."""
    with _pools_lock:
        return _pools.get(name)


def pool_workers(name: str) -> int:
    """Worker count of the named pool (0 when it does not exist)."""
    with _pools_lock:
        return _pool_workers.get(name, 0)


def shutdown_pool(name: str, *, wait: bool = True) -> None:
    """Release one named pool. Idempotent and concurrent-safe.

    The registry entry is atomically removed under the lock, so at most one
    caller observes (and shuts down) any given executor; everyone else sees
    an already-empty slot and returns.
    """
    with _pools_lock:
        pool = _pools.pop(name, None)
        _pool_workers.pop(name, None)
    if pool is not None:
        pool.shutdown(wait=wait)


def shutdown_pools(wait: bool = True) -> None:
    """Release every registered pool (owner/router teardown). Idempotent.

    Concurrent calls partition the registry between themselves: each
    executor is shut down exactly once, and a ``shared_pool`` racing with
    the teardown simply creates a fresh pool afterwards.
    """
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
        _pool_workers.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


# ----------------------------------------------------------------------
# Where build tasks run
# ----------------------------------------------------------------------
_dispatch_lock = threading.Lock()
_dispatch_log: dict[str, dict] = {}  # guarded-by: _dispatch_lock


@dataclass(frozen=True)
class DispatchDecision:
    """One inline-vs-pool choice, with the reason it was made."""

    parallel: bool
    workers: int
    reason: str


def dispatch_decision(kind: str, *, requested_workers: int) -> DispatchDecision:
    """Inline or pooled execution for one fan-out opportunity, logged.

    Two conditions keep the work inline: one requested worker, or a host
    whose threads cannot overlap. Otherwise it runs on a pool of
    ``min(requested_workers, cores)``.
    """
    cores = detected_cores()
    if requested_workers <= 1:
        decision = DispatchDecision(False, 1, "a single worker was requested")
    elif cores < 2:
        decision = DispatchDecision(
            False, 1, f"{cores} CPU core(s): threads cannot overlap"
        )
    else:
        decision = DispatchDecision(
            True, min(requested_workers, cores), f"{cores} CPU core(s) available"
        )
    with _dispatch_lock:
        log = _dispatch_log.setdefault(kind, {"serial": 0, "parallel": 0})
        log["parallel" if decision.parallel else "serial"] += 1
        log["last"] = {
            "parallel": decision.parallel,
            "workers": decision.workers,
            "reason": decision.reason,
        }
    return decision


def dispatch_stats() -> dict[str, dict]:
    """Per-kind dispatch counters and last decisions (for BenchStats)."""
    with _dispatch_lock:
        return {kind: dict(log) for kind, log in _dispatch_log.items()}


def reset_dispatch_stats() -> None:
    """Zero the dispatch log (test/benchmark isolation)."""
    with _dispatch_lock:
        _dispatch_log.clear()
