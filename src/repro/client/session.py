"""The application-facing session: one call to stand up a whole deployment.

:class:`EncDBDBSystem` wires together the DBaaS server (with its enclave),
the data owner (key generation, attestation, provisioning), and the trusted
proxy, reproducing the full setup of paper Figure 5. Applications then just
issue SQL::

    system = EncDBDBSystem.create(seed=7)
    system.execute("CREATE TABLE t (name ED5 VARCHAR(30), age ED1 INTEGER)")
    system.execute("INSERT INTO t VALUES ('Jessica', 31)")
    result = system.query("SELECT name FROM t WHERE age >= 30")
"""

from __future__ import annotations

from repro.client.owner import DataOwner
from repro.client.proxy import Proxy
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.server.dbms import EncDBDBServer
from repro.sql.result import QueryResult


class EncDBDBSystem:
    """A fully provisioned EncDBDB deployment (server + owner + proxy)."""

    def __init__(self, server: EncDBDBServer, owner: DataOwner, proxy: Proxy) -> None:
        self.server = server
        self.owner = owner
        self.proxy = proxy

    @classmethod
    def create(
        cls, *, seed: int | bytes | str = 0, fastpath=None
    ) -> "EncDBDBSystem":
        """Stand up a deployment: generate keys, attest, provision.

        ``fastpath`` (a :class:`~repro.sgx.cache.FastPathConfig`) sizes the
        enclave's decrypted-entry cache; ``None`` is the server default, and
        ``FastPathConfig(dictionary_cache_bytes=0)`` the paper's
        constant-memory enclave.
        """
        rng = HmacDrbg(seed if isinstance(seed, (bytes, str)) else int(seed))
        server = EncDBDBServer(rng=rng.fork("server"), fastpath=fastpath)
        owner = DataOwner(rng=rng.fork("owner"))
        owner.attest_and_provision(server)
        proxy = Proxy(server, owner.master_key, default_pae(rng=rng.fork("proxy")))
        return cls(server, owner, proxy)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        seed: int | bytes | str = 0,
        master_key: bytes | None = None,
        provision: bool | None = None,
        expected_measurement: bytes | None = None,
    ) -> "EncDBDBSystem":
        """Stand up a deployment against a **remote** server over TCP.

        Same surface as :meth:`create`, but the server side is a
        ``repro.net`` deployment: attestation, ``SKDB`` provisioning and all
        query plans travel over real sockets. ``provision`` defaults to
        provisioning only when the remote enclave does not hold a key yet;
        pass ``master_key`` to resume a previously provisioned deployment
        (e.g. after a sealed-storage server restart).
        """
        from repro.net.client import connect_system

        return connect_system(
            host,
            port,
            seed=seed,
            master_key=master_key,
            provision=provision,
            expected_measurement=expected_measurement,
        )

    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Run any supported SQL statement through the proxy."""
        return self.proxy.execute(sql)

    def query(self, sql: str) -> QueryResult:
        """Run a SELECT and return its :class:`QueryResult`."""
        result = self.proxy.execute(sql)
        if not isinstance(result, QueryResult):
            raise TypeError("query() is only for SELECT statements")
        return result

    def bulk_load(
        self,
        table_name: str,
        columns: dict[str, list],
        *,
        partition_rows: int | None = None,
    ) -> int:
        """Data-owner bulk import: EncDB locally, deploy ciphertext only.

        ``partition_rows`` selects a partitioned main-store layout (one
        independent encrypted dictionary per fixed-row-count chunk), built
        one partition at a time by the owner's streaming build.
        """
        return self.owner.deploy_table(
            self.server, table_name, columns, partition_rows=partition_rows
        )

    def merge(self, table_name: str) -> int:
        """Trigger the delta-store merge for one table (paper §4.3)."""
        return self.execute(f"MERGE TABLE {table_name}")

    def migrate(
        self,
        table_name: str,
        column_name: str,
        *,
        new_kind: str | None = None,
        rotate_key: bool = False,
    ):
        """Online rotation driven to completion (``repro.migrate``).

        Starts the rotation of ``table_name.column_name`` to ``new_kind``
        (and/or a fresh storage-key epoch) and runs every phase — queries
        keep flowing throughout; this call just does not return until the
        column is fully adopted. Returns the final list of
        :class:`~repro.migrate.plan.MigrationStatus` (one per server
        endpoint; a single in-process server yields one). Raises
        :class:`~repro.exceptions.QueryError` if any endpoint failed, in
        which case the migration is left in place for ``migrate_rollback``.
        """
        from repro.exceptions import CatalogError, QueryError

        self.server.migrate_start(
            table_name, column_name, new_kind=new_kind, rotate_key=rotate_key
        )
        finished = self.server.migrate_run(table_name, column_name)
        statuses = finished if isinstance(finished, list) else [finished]
        failed = [status for status in statuses if status.state != "done"]
        if failed:
            raise QueryError(
                f"rotation of {table_name}.{column_name} failed: "
                + "; ".join(status.error or status.state for status in failed)
            )
        # Keep the proxy's schema mirror in step with the adopted column so
        # EXPLAIN and spec lookups describe what the server now serves.
        status = statuses[0]
        try:
            spec = self.proxy._schema.table(table_name).spec(column_name)
        except CatalogError:
            spec = None
        if spec is not None:
            from repro.encdict.options import kind_by_name

            spec.adopt_protection(
                kind_by_name(status.new_kind), status.new_key_epoch
            )
        return statuses

    def save(self, path) -> None:
        self.server.save(path)

    def close(self) -> None:
        """Release the underlying transport (no-op for in-process systems)."""
        closer = getattr(self.server, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "EncDBDBSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
