"""Online rotation across a sharded, replicated cluster.

The migrate verbs broadcast to *every* endpoint of every populated shard
(route ``replicas-strict`` — a replica missing a rotation would diverge, not lag),
and the deterministic rotation DRBG makes all endpoints of a shard converge
on byte-identical ciphertext without coordinating. Queries through the
scatter-gather router stay correct at every intermediate step.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSystem
from repro.columnstore.storage import encrypted_partition_frame
from repro.exceptions import ClusterError
from repro.net import RetryPolicy

from tests.cluster.conftest import live_cluster

ROWS = 48
VALUES = [(i * 5) % 21 for i in range(ROWS)]
SQL = "SELECT id FROM t WHERE v BETWEEN 4 AND 12"
IMPATIENT = RetryPolicy.none()


def _load(system) -> None:
    system.execute("CREATE TABLE t (id INTEGER, v ED3 INTEGER)")
    system.bulk_load(
        "t",
        {"id": list(range(ROWS)), "v": list(VALUES)},
        partition_rows=8,
    )


def _expected():
    return sorted(i for i, v in enumerate(VALUES) if 4 <= v <= 12)


def _column(handles, shard_id, replica):
    dbms = handles.by_endpoint[(shard_id, replica)].server.dbms
    return dbms.catalog.table("t").column("v")


def test_cluster_rotation_stays_correct_and_replicas_converge():
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            expected = _expected()
            assert sorted(cluster.query(SQL).column("id")) == expected

            statuses = cluster.server.migrate_start(
                "t", "v", new_kind="ED9", rotate_key=True
            )
            # One status per endpoint of every populated shard.
            assert [s.state for s in statuses] == ["running"] * len(statuses)
            assert len(statuses) == 4

            # Mid-flight: EXPLAIN surfaces the rotation, queries stay right.
            while True:
                statuses = cluster.server.migrate_step("t", "v")
                assert sorted(cluster.query(SQL).column("id")) == expected
                if all(s.state != "running" for s in statuses):
                    break
                assert "migration: t.v ED3->ED9" in cluster.proxy.explain(SQL)
            assert [s.state for s in statuses] == ["done"] * len(statuses), [
                s.error for s in statuses
            ]

            assert sorted(cluster.query(SQL).column("id")) == expected
            cluster.execute("INSERT INTO t VALUES (999, 8)")
            assert sorted(cluster.query(SQL).column("id")) == expected + [999]

        # Replicas of each shard hold byte-identical rotated partitions.
        for shard_id in (0, 1):
            primary = _column(handles, shard_id, 0)
            replica = _column(handles, shard_id, 1)
            assert primary.key_epoch == replica.key_epoch == 1
            assert primary.partition_ids == replica.partition_ids
            frames = lambda column: [
                encrypted_partition_frame(build, pid)
                for build, pid in zip(
                    column.partition_builds, column.partition_ids
                )
            ]
            assert frames(primary) == frames(replica)


def test_rotation_refuses_to_run_with_a_replica_down():
    """A dead replica aborts the migration loudly — divergence, not
    staleness — and the rotation proceeds after a rollback once the
    operator decides the topology is what it is."""
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            handles.stop(1, replica=1)
            with pytest.raises(ClusterError, match="needs every replica"):
                cluster.server.migrate_start("t", "v", new_kind="ED9")
            # The surviving endpoints may have registered the migration
            # before the broadcast failed; status shows where things stand.
            for status in cluster.server.migrate_status("t"):
                assert status.state in ("running", "rolled-back")


def test_cluster_rollback_everywhere():
    with live_cluster(2, replicas=0) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            cluster.server.migrate_start("t", "v", new_kind="ED9")
            cluster.server.migrate_step("t", "v", 2)
            statuses = cluster.server.migrate_rollback("t", "v")
            assert [s.state for s in statuses] == ["rolled-back"] * len(statuses)
            assert sorted(cluster.query(SQL).column("id")) == _expected()
            for shard_id in (0, 1):
                column = _column(handles, shard_id, 0)
                assert column.key_epoch == 0
                assert column.shadow is None


def test_cluster_system_inherits_the_session_surface():
    """``ClusterSystem`` is an ``EncDBDBSystem`` over the router: the
    inherited ``migrate`` / ``merge`` run cluster-wide, a status sweep with
    no table named covers every table, and the in-process factory it cannot
    honour refuses instead of half-working."""
    with pytest.raises(TypeError, match="ClusterSystem.connect"):
        ClusterSystem.create(seed=1)
    with live_cluster(2, replicas=1) as handles:
        with ClusterSystem.connect(
            handles.shard_map, seed=5, retry=IMPATIENT
        ) as cluster:
            _load(cluster)
            cluster.execute("CREATE TABLE u (id INTEGER)")
            statuses = cluster.migrate("t", "v", new_kind="ED9")
            assert [s.state for s in statuses] == ["done"] * 4
            assert len(cluster.server.migrate_status()) == 4  # t only; u idle
            assert "(ED9," in cluster.explain(SQL)  # the proxy mirror followed
            cluster.execute("INSERT INTO t VALUES (100, 7)")
            assert cluster.merge("t") >= 1
            assert sorted(cluster.query(SQL).column("id")) == _expected() + [100]
