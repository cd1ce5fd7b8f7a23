"""Cluster deployment: attested provisioning, key replication, data fan-out.

The coordinator runs in the **data owner's realm**. It owns the one
attestation + provisioning round the paper specifies (§4.2 step 2) — against
the primary enclave of shard 0 — and then *replicates* ``SKDB`` to every
other enclave without ever holding it on the wire in the clear:

1. the target enclave publishes a fresh channel offer (DH public + quote),
2. the coordinator relays the offer to the already-provisioned primary,
   whose ``replicate_master_key`` ecall verifies the quote against its own
   measurement (same enclave binary ⇒ same expected identity) and wraps
   ``SKDB`` under the derived channel key,
3. the coordinator relays the resulting DH public and PAE blob back to the
   target's ``channel_accept`` / ``provision_master_key``.

The coordinator — and any network between the servers — sees two DH publics,
one quote, and one PAE ciphertext. Key material crosses only enclave to
enclave (DESIGN.md §12).

Data deployment reuses the owner's streaming build pipeline (PR 4)
unchanged: the coordinator records the table's span assignment on the shard
map, then lets :meth:`DataOwner.deploy_table` stream partitions through the
:class:`~repro.cluster.router.ClusterRouter`, which ships each completed
span to its shard (replicas receive byte-identical ciphertext).
"""

from __future__ import annotations

from repro.client.owner import DataOwner
from repro.client.proxy import Proxy
from repro.client.session import EncDBDBSystem
from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import ShardMap, TableAssignment
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.exceptions import ClusterError
from repro.net.client import NetConnection, RemoteServer, RetryPolicy


class ClusterCoordinator:
    """Provisions and populates a replicated EncDBDB cluster."""

    def __init__(
        self,
        shard_map: ShardMap,
        owner: DataOwner,
        *,
        router: ClusterRouter | None = None,
        **router_options,
    ) -> None:
        self.shard_map = shard_map
        self.owner = owner
        self.router = (
            router
            if router is not None
            else ClusterRouter(shard_map, **router_options)
        )
        self._provisioned = False

    # ------------------------------------------------------------------
    # Key distribution
    # ------------------------------------------------------------------
    def provision(self, *, expected_measurement: bytes | None = None) -> int:
        """Attest + provision the whole cluster; returns enclaves keyed.

        The owner performs exactly one full attestation round (against the
        shard-0 primary); every other enclave receives ``SKDB`` through the
        primary-to-replica hand-off above. The primary connection is leased
        for the whole sequence — provisioning and replication are
        session-bound on the server.
        """
        primary_pool = self.router.group(0).pools[0]
        keyed = 0
        with primary_pool.lease() as primary:
            self.owner.attest_and_provision(
                primary, expected_measurement=expected_measurement
            )
            keyed += 1
            for group in self.router.groups:
                for pool in group.pools:
                    if pool is primary_pool:
                        continue
                    with pool.lease() as node:
                        replicate_key(primary, node)
                    keyed += 1
        self._provisioned = True
        return keyed

    # ------------------------------------------------------------------
    # Data deployment
    # ------------------------------------------------------------------
    def deploy_table(
        self,
        table_name: str,
        columns: dict[str, list],
        *,
        partition_rows: int,
    ) -> TableAssignment:
        """Assign spans, then stream the table out through the router.

        Column values must be sized (the assignment needs the row count up
        front); the build itself still streams partition by partition.
        """
        if not self._provisioned:
            raise ClusterError("provision() the cluster before deploying data")
        sized = {name: _sized(values) for name, values in columns.items()}
        row_counts = {len(values) for values in sized.values()}
        if len(row_counts) != 1:
            raise ClusterError(
                f"columns of {table_name!r} have inconsistent lengths"
            )
        (total_rows,) = row_counts
        if total_rows == 0:
            # An empty load is a no-op on every transport: nothing to place,
            # and the table stays unassigned (its inserts live on shard 0).
            return TableAssignment(table_name, partition_rows, 0, ())
        assignment = self.shard_map.assign(table_name, total_rows, partition_rows)
        try:
            self.owner.deploy_table(
                self.router, table_name, sized, partition_rows=partition_rows
            )
        except BaseException:
            self.shard_map.drop(table_name)
            raise
        return assignment

    def close(self) -> None:
        self.router.close()


def replicate_key(primary: RemoteServer, target) -> None:
    """One enclave-to-enclave key hand-off, relayed by untrusted code.

    ``primary`` must already hold ``SKDB``; ``target`` is any object with
    the enclave channel surface (a :class:`RemoteServer` or an in-process
    :class:`~repro.server.dbms.EncDBDBServer`). The relay forwards opaque
    values only.
    """
    offer = target.enclave_channel_offer()
    client_public, wire_blob = primary.enclave_replicate_key(offer)
    target.enclave_channel_accept(client_public)
    target.enclave_provision(wire_blob)


def pull_master_key_from(
    dbms,
    host: str,
    port: int,
    *,
    retry: RetryPolicy | None = None,
    timeout: float = 60.0,
) -> None:
    """Boot-time replica provisioning (``serve --replica-of``).

    The local enclave makes the channel offer; the already-provisioned
    primary at ``host:port`` wraps ``SKDB`` for it. With a patient
    :class:`RetryPolicy` a replica may be started before its primary and
    will keep knocking until the primary is up and provisioned.
    """
    connection = NetConnection(host, port, timeout=timeout, retry=retry)
    try:
        replicate_key(RemoteServer(connection), dbms)
    finally:
        connection.close()


def _sized(values) -> list:
    """Materialize a column source when its length is not known."""
    try:
        len(values)
    except TypeError:
        return list(values)
    return values


class ClusterSystem(EncDBDBSystem):
    """Application-facing cluster session: coordinator + router + proxy.

    An :class:`~repro.client.session.EncDBDBSystem` whose server is the
    scatter-gather router (which answers the whole verb surface), so
    ``execute`` / ``query`` / ``migrate`` / ``close`` are inherited; only
    standing the fleet up and deploying data differ.
    """

    def __init__(
        self, coordinator: ClusterCoordinator, proxy: Proxy
    ) -> None:
        super().__init__(coordinator.router, coordinator.owner, proxy)
        self.coordinator = coordinator
        self.router = coordinator.router

    @classmethod
    def create(cls, **_options) -> "ClusterSystem":
        raise TypeError(
            "a cluster is stood up over a shard map of running servers: "
            "use ClusterSystem.connect(shard_map, ...)"
        )

    @classmethod
    def connect(
        cls,
        shard_map: ShardMap,
        *,
        seed: int | bytes | str = 0,
        expected_measurement: bytes | None = None,
        **router_options,
    ) -> "ClusterSystem":
        """Stand up a fully keyed cluster deployment.

        The owner-side DRBG forking mirrors :meth:`EncDBDBSystem.create`
        (``owner`` then ``proxy`` off one root), so the same seed yields the
        same ``SKDB``, the same per-column build randomness, and therefore
        ciphertext partitions identical to a single-node deployment.
        """
        rng = HmacDrbg(seed if isinstance(seed, (bytes, str)) else int(seed))
        owner = DataOwner(rng=rng.fork("owner"))
        coordinator = ClusterCoordinator(shard_map, owner, **router_options)
        try:
            coordinator.provision(expected_measurement=expected_measurement)
            proxy = Proxy(
                coordinator.router,
                owner.master_key,
                default_pae(rng=rng.fork("proxy")),
            )
            for name in coordinator.router.table_names():
                proxy.register_schema(
                    name, list(coordinator.router.table_specs(name))
                )
        except BaseException:
            coordinator.close()
            raise
        return cls(coordinator, proxy)

    # ------------------------------------------------------------------
    def explain(self, sql: str) -> str:
        return self.proxy.explain(sql)

    def bulk_load(
        self,
        table_name: str,
        columns: dict[str, list],
        *,
        partition_rows: int,
    ) -> TableAssignment:
        return self.coordinator.deploy_table(
            table_name, columns, partition_rows=partition_rows
        )
