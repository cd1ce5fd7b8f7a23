"""The shared worker-pool registry: naming, growth, idempotent teardown."""

from __future__ import annotations

import threading

from repro.runtime import (
    BUILD_THREAD_POOL,
    CLUSTER_POOL,
    active_pool,
    pool_workers,
    shared_pool,
    shutdown_pool,
    shutdown_pools,
)


def setup_function(_):
    shutdown_pools()


def teardown_function(_):
    shutdown_pools()


def test_named_pools_are_independent():
    scatter = shared_pool(CLUSTER_POOL, 2)
    build = shared_pool(BUILD_THREAD_POOL, 3)
    assert scatter is not build
    assert pool_workers(CLUSTER_POOL) == 2
    assert pool_workers(BUILD_THREAD_POOL) == 3
    shutdown_pool(CLUSTER_POOL)
    assert active_pool(CLUSTER_POOL) is None
    assert active_pool(BUILD_THREAD_POOL) is build


def test_pool_grows_upward_and_never_shrinks():
    small = shared_pool(CLUSTER_POOL, 2)
    assert shared_pool(CLUSTER_POOL, 2) is small
    big = shared_pool(CLUSTER_POOL, 5)
    assert big is not small
    assert shared_pool(CLUSTER_POOL, 3) is big  # fewer workers: reuse
    assert pool_workers(CLUSTER_POOL) == 5


def test_shutdown_is_idempotent():
    shared_pool(CLUSTER_POOL, 2)
    shutdown_pools()
    shutdown_pools()  # second call is a no-op
    shutdown_pool(CLUSTER_POOL)  # and so is a late single-name call
    assert pool_workers(CLUSTER_POOL) == 0


def test_concurrent_create_and_shutdown_never_deadlocks_or_leaks():
    """Hammer the registry from 8 threads mixing creation and teardown.

    Every surviving executor must still accept work afterwards — i.e. no
    thread ever observed a half-torn-down pool.
    """
    errors: list[BaseException] = []

    def worker(seed: int):
        try:
            for i in range(30):
                pool = shared_pool(CLUSTER_POOL, 1 + (seed + i) % 4)
                try:
                    pool.submit(int, "7").result()
                except RuntimeError:
                    # racing teardown shut this executor down; the next
                    # shared_pool() call returns a live one
                    pass
                if i % 10 == seed % 10:
                    shutdown_pools(wait=False)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = shared_pool(CLUSTER_POOL, 2)
    assert final.submit(int, "42").result() == 42


def test_shutdown_build_pools_releases_the_build_pool():
    from repro.encdict.pipeline import shutdown_build_pools

    shared_pool(BUILD_THREAD_POOL, 2)
    shutdown_build_pools()
    assert active_pool(BUILD_THREAD_POOL) is None
