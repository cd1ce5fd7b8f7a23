"""Replica failover: killing one of two replicas must not change results."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ClusterSystem
from repro.exceptions import ClusterError
from repro.net import RetryPolicy
from repro.cluster.router import SCATTER_THREAD_PREFIX

from tests.cluster.conftest import live_cluster

ROWS = 42
VALUES = [(i * 11) % 17 for i in range(ROWS)]
SQL = "SELECT id FROM t WHERE v BETWEEN 4 AND 12"

# Dead-endpoint detection should be quick: one connect attempt, no backoff.
IMPATIENT = RetryPolicy.none()


def _load(system) -> None:
    system.execute("CREATE TABLE t (id INTEGER, v ED3 INTEGER)")
    system.bulk_load(
        "t",
        {"id": list(range(ROWS)), "v": list(VALUES)},
        partition_rows=6,
    )


def _expected():
    return sorted(i for i, v in enumerate(VALUES) if 4 <= v <= 12)


def test_query_survives_primary_crash():
    """2 shards x 2 replicas; shard 1 loses its primary mid-session."""
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            expected = _expected()
            assert sorted(cluster.query(SQL).column("id")) == expected
            handles.stop(1, replica=0)  # crash shard 1's primary
            # The router retries the shard on its replica — same rows, same
            # padded union, RecordIDs rebased identically.
            assert sorted(cluster.query(SQL).column("id")) == expected
            # Failover is sticky: subsequent queries keep working too.
            assert sorted(cluster.query(SQL).column("id")) == expected


def test_query_survives_replica_crash_of_every_shard():
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            handles.stop(0, replica=1)
            handles.stop(1, replica=1)
            assert sorted(cluster.query(SQL).column("id")) == _expected()


def test_losing_every_endpoint_of_a_shard_is_a_loud_error():
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            handles.stop(1, replica=0)
            handles.stop(1, replica=1)
            with pytest.raises(ClusterError, match="every endpoint failed"):
                cluster.query(SQL)


def test_restarted_replica_rejoins_rotation():
    """Kill a replica, boot a fresh keyed server on its port: it must pick
    up subsequent writes and re-enter the read rotation — proven by killing
    the primary afterwards, leaving the rejoined replica as the only copy."""
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT, probe_interval=0.05
        ) as cluster:
            handles.stop(1, replica=1)
            handles.restart(1, replica=1, key_from=(1, 0))
            time.sleep(0.1)  # past the probe interval
            _load(cluster)  # broadcasts reach the restarted server
            expected = _expected()
            # Round-robin over healthy endpoints must include the rejoined
            # replica; every rotation position answers identically.
            for _ in range(4):
                assert sorted(cluster.query(SQL).column("id")) == expected
            cluster.execute("INSERT INTO t VALUES (999, 8)")
            handles.stop(1, replica=0)  # only the rejoined replica remains
            assert sorted(cluster.query(SQL).column("id")) == expected + [999]


def test_writes_reach_surviving_replica():
    """An insert broadcast still lands when the tail primary is down."""
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            handles.stop(1, replica=0)  # shard 1 owns the table's tail
            cluster.execute("INSERT INTO t VALUES (999, 8)")
            got = sorted(cluster.query(SQL).column("id"))
            assert got == _expected() + [999]


def _scatter_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(SCATTER_THREAD_PREFIX)
    ]


def test_stopping_a_replica_leaves_the_scatter_pool_alone():
    """A stopping server owns no executor: the router's own scatter executor
    is the same live object before and after, and reads looping on another
    thread across the stop never see a shut-down executor."""
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            expected = _expected()
            assert sorted(cluster.query(SQL).column("id")) == expected
            router = cluster.coordinator.router
            pool = router._scatter_pool
            assert _scatter_threads()

            stopped = threading.Event()
            errors: list[BaseException] = []

            def reader() -> None:
                try:
                    reads_after_stop = 0
                    while reads_after_stop < 3:
                        if stopped.is_set():
                            reads_after_stop += 1
                        assert sorted(cluster.query(SQL).column("id")) == expected
                except BaseException as exc:
                    errors.append(exc)

            thread = threading.Thread(target=reader)
            thread.start()
            handles.stop(1, replica=1)
            stopped.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert errors == []
            assert router._scatter_pool is pool
            pool.submit(int).result(timeout=10)  # still accepts work


def test_no_scatter_thread_survives_close():
    """Regression: scatter threads lived in a process-wide registry nothing
    in ``src/`` ever shut down, so they outlived every ``close()``."""
    before = set(_scatter_threads())
    with live_cluster(2) as handles:
        with ClusterSystem.connect(handles.shard_map, seed=5) as cluster:
            _load(cluster)
            assert sorted(cluster.query(SQL).column("id")) == _expected()
            started = set(_scatter_threads()) - before
            assert started
        assert not any(thread.is_alive() for thread in started)


def test_single_shard_router_never_starts_a_scatter_thread():
    before = set(_scatter_threads())
    with live_cluster(1) as handles:
        with ClusterSystem.connect(handles.shard_map, seed=5) as cluster:
            _load(cluster)
            assert sorted(cluster.query(SQL).column("id")) == _expected()
            cluster.execute("INSERT INTO t VALUES (999, 8)")
            assert set(_scatter_threads()) == before
