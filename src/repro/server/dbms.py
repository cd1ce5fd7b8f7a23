"""The EncDBDB server: untrusted DBMS hosting a small trusted enclave.

Everything in this module is *untrusted* (it runs at the DBaaS provider):
catalog, storage, planner-output execution, result rendering. The only
trusted component is the :class:`~repro.encdict.enclave_app.EncDBDBEnclave`
reached through its :class:`~repro.sgx.enclave.EnclaveHost`. The server
never sees plaintext values of encrypted columns, the master key, or a
rotation offset — tests assert exactly that.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import EncryptedStoredColumn, PlainStoredColumn
from repro.columnstore.partition import (
    DEFAULT_PARTITION_ROWS,
    partition_lengths,
    slice_rows,
)
from repro.columnstore.storage import load_database, save_database
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import Pae, default_pae
from repro.encdict.builder import BuildResult
from repro.encdict.enclave_app import EncDBDBEnclave
from repro.exceptions import CatalogError, QueryError
from repro.migrate import MigrationManager
from repro.migrate.plan import MigrationStatus
from repro.sgx.attestation import AttestationService
from repro.sgx.cache import FastPathConfig
from repro.sgx.enclave import EnclaveHost
from repro.sql.executor import Executor
from repro.sql.planner import (
    CreatePlan,
    DeletePlan,
    JoinSelectPlan,
    MergePlan,
    SelectPlan,
)
from repro.sql.result import ServerResult

if TYPE_CHECKING:  # the stream item type lives owner-side; only needed for
    # annotations — the server treats arriving partitions as opaque builds.
    from repro.encdict.pipeline import PartitionBuild


class EncDBDBServer:
    """One DBaaS deployment: catalog + executor + loaded enclave."""

    def __init__(
        self,
        *,
        attestation: AttestationService | None = None,
        pae: Pae | None = None,
        rng: HmacDrbg | None = None,
        fastpath: FastPathConfig | None = None,
    ) -> None:
        rng = rng if rng is not None else HmacDrbg(b"encdbdb-server")
        self.attestation = attestation if attestation is not None else AttestationService()
        self.catalog = Catalog()
        self._enclave = EncDBDBEnclave(
            attestation=self.attestation,
            pae=pae if pae is not None else default_pae(rng=rng.fork("enclave-pae")),
            rng=rng.fork("enclave"),
            # The enclave's entry-cache budget: the default size unless
            # given; FastPathConfig(dictionary_cache_bytes=0) is the paper's
            # constant-memory enclave.
            fastpath=fastpath if fastpath is not None else FastPathConfig(),
        )
        self.enclave_host = EnclaveHost(self._enclave)
        self.executor = Executor(self.catalog, self.enclave_host)
        # Kept here so load() rebuilds the manager on the same salt stream.
        self._migration_salt_rng = rng.fork("migration-salts")
        self.migrations = MigrationManager(
            self.catalog, self.enclave_host, salt_rng=self._migration_salt_rng
        )
        self._merge_policy = None

    # ------------------------------------------------------------------
    # Enclave surface exposed to the network (provisioning passthrough)
    # ------------------------------------------------------------------
    @property
    def measurement(self) -> bytes:
        return self.enclave_host.measurement

    @property
    def cost_model(self):
        return self.enclave_host.cost_model

    def enclave_channel_offer(self):
        return self.enclave_host.ecall("channel_offer")

    def enclave_channel_accept(self, client_public: int) -> None:
        self.enclave_host.ecall("channel_accept", client_public)

    def enclave_provision(self, wire_blob: bytes) -> None:
        self.enclave_host.ecall("provision_master_key", wire_blob)

    def enclave_is_provisioned(self) -> bool:
        return self.enclave_host.ecall("is_provisioned")

    def enclave_replicate_key(self, offer) -> tuple:
        """Primary side of cluster key replication: wrap ``SKDB`` for the
        attested replica enclave whose channel offer is relayed in."""
        return self.enclave_host.ecall("replicate_master_key", offer)

    def enclave_seal(self) -> bytes:
        """Seal ``SKDB`` to the enclave identity (restart persistence)."""
        return self.enclave_host.ecall("seal_master_key")

    def enclave_restore(self, sealed_blob: bytes) -> None:
        """Restore ``SKDB`` from a sealed blob without re-attestation."""
        self.enclave_host.ecall("restore_master_key", sealed_blob)

    # ------------------------------------------------------------------
    # Introspection for remote clients (schema mirror sync, accounting)
    # ------------------------------------------------------------------
    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def table_specs(self, table_name: str) -> tuple:
        return tuple(self.catalog.table(table_name).specs)

    def cost_snapshot(self) -> dict:
        """Cost-model counters plus derived totals, as one plain dict."""
        snapshot = self.cost_model.snapshot()
        snapshot["ecalls_by_name"] = dict(self.cost_model.ecalls_by_name)
        snapshot["estimated_cycles"] = self.cost_model.estimated_cycles()
        return snapshot

    # ------------------------------------------------------------------
    # DDL and bulk import (paper §4.2 steps 3-4)
    # ------------------------------------------------------------------
    def create_table(self, plan: CreatePlan) -> None:
        table = self.catalog.create_table(plan.table, plan.specs)
        table.attach_columns(self._empty_columns(table), 0)

    @staticmethod
    def _empty_columns(table) -> dict[str, PlainStoredColumn | EncryptedStoredColumn]:
        """One fresh, empty stored column per spec of ``table``."""
        columns: dict[str, PlainStoredColumn | EncryptedStoredColumn] = {}
        for spec in table.specs:
            if spec.is_encrypted:
                column = EncryptedStoredColumn(spec, None)
                column.bind(table.name)
            else:
                column = PlainStoredColumn(spec)
            columns[spec.name] = column
        return columns

    def bulk_load(
        self,
        table_name: str,
        *,
        plain_columns: dict[str, list] | None = None,
        encrypted_builds: dict[str, BuildResult | list[BuildResult]] | None = None,
    ) -> int:
        """Import a prepared dataset (the data owner's ``EncDB`` output).

        The collected form of a load — the one payload the wire ships. An
        encrypted column may arrive as one build (single partition) or a
        list of per-partition builds. All columns of a table share one
        partition layout: the per-partition row counts of the encrypted
        builds are the template (they cannot be re-chunked without the
        enclave), and plain columns are sliced to match so global RecordIDs
        stay row-aligned across columns. A table without encrypted columns
        is cut into partitions of ``DEFAULT_PARTITION_ROWS``.
        """
        plain_columns = plain_columns or {}
        build_lists: dict[str, list[BuildResult]] = {
            name: list(build) if isinstance(build, (list, tuple)) else [build]
            for name, build in (encrypted_builds or {}).items()
        }
        layouts = {
            tuple(len(build.attribute_vector) for build in builds)
            for builds in build_lists.values()
        }
        if len(layouts) > 1:
            raise CatalogError(
                "encrypted columns have mismatched partition layouts"
            )
        if layouts:
            (layout,) = layouts
        else:
            rows = max(map(len, plain_columns.values()), default=0)
            layout = partition_lengths(rows, DEFAULT_PARTITION_ROWS)
        if any(len(values) != sum(layout) for values in plain_columns.values()):
            raise CatalogError("bulk-loaded columns have inconsistent lengths")
        plain_parts = {
            name: slice_rows(values, layout) for name, values in plain_columns.items()
        }
        return self._install_partitions(
            table_name,
            (
                (
                    {name: builds[index] for name, builds in build_lists.items()},
                    {name: parts[index] for name, parts in plain_parts.items()},
                )
                for index in range(len(layout))
            ),
        )

    def bulk_load_stream(
        self, table_name: str, partitions: "Iterable[PartitionBuild]"
    ) -> int:
        """Import a table from a stream of completed partitions.

        ``partitions`` yields :class:`~repro.encdict.pipeline.PartitionBuild`
        items in partition order — typically straight out of the data
        owner's :func:`~repro.encdict.pipeline.build_partitions` — and each
        is installed into the column store as it arrives, before the owner
        builds the next one. The resulting catalog state is identical to a
        :meth:`bulk_load` of the collected builds; only the peak transient
        memory differs (O(partition), not O(table)).
        """
        return self._install_partitions(
            table_name,
            ((part.builds, part.plain_values) for part in partitions),
        )

    def _install_partitions(
        self,
        table_name: str,
        partitions: Iterable[tuple[dict[str, BuildResult], dict[str, list]]],
    ) -> int:
        """Install ``(encrypted builds, plaintext values)`` partitions, in
        order, as the main store of an empty table — every load ends here.

        Each partition must cover exactly the table's columns, each in the
        form its spec declares, at one common length; plaintext values are
        type-checked against the partition's distinct values. Nothing is
        attached until the stream is exhausted, so a rejected load leaves the
        table empty; a load of no partitions is a no-op.
        """
        table = self.catalog.table(table_name)
        if table.row_count:
            raise CatalogError(f"table {table_name!r} already holds data")
        columns = self._empty_columns(table)
        row_count = 0
        largest_partition = 0
        for index, (builds, plain_values) in enumerate(partitions):
            if set(builds) | set(plain_values) != set(columns):
                raise CatalogError(
                    f"bulk load must cover exactly the columns of {table_name!r}"
                )
            lengths = {
                len(build.attribute_vector) for build in builds.values()
            } | {len(values) for values in plain_values.values()}
            if len(lengths) != 1:
                raise CatalogError(
                    f"partition {index} of {table_name!r} has "
                    "columns of inconsistent lengths"
                )
            for name, build in builds.items():
                spec = columns[name].spec
                if not spec.is_encrypted:
                    raise CatalogError(f"column {name!r} is not encrypted")
                if build.dictionary.kind != spec.protection:
                    raise CatalogError(
                        f"column {name!r} was built as "
                        f"{build.dictionary.kind} but is declared {spec.protection}"
                    )
                columns[name].append_partition(build)
            for name, values in plain_values.items():
                spec = columns[name].spec
                if spec.is_encrypted:
                    raise CatalogError(
                        f"column {name!r} requires an encrypted build"
                    )
                for value in set(values):
                    spec.value_type.validate(value)
                columns[name].append_partition_values(values)
            (partition_rows,) = lengths
            row_count += partition_rows
            largest_partition = max(largest_partition, partition_rows)
        if row_count:
            table.attach_columns(columns, row_count)
            table.partition_rows = largest_partition
        return row_count

    def drop_table(self, table_name: str) -> None:
        self.catalog.drop_table(table_name)

    # ------------------------------------------------------------------
    # Query execution (proxy-facing)
    # ------------------------------------------------------------------
    def execute_select(self, plan: SelectPlan) -> ServerResult:
        return self.executor.select(plan)

    def execute_select_pushdown(self, plan: SelectPlan):
        """SELECT through the cost-based analytics pushdown router (PR 9).

        Returns a :class:`~repro.sql.result.PushdownSelectResult`: routing
        decisions plus either padded aggregate frames or the usual row
        payload. The plain :meth:`execute_select` path is untouched and
        remains the correctness oracle.
        """
        return self.executor.select_pushdown(plan)

    def explain_pushdown(self, plan) -> tuple:
        """EXPLAIN hook: the routing decisions the pushdown router would
        make for this plan (structural facts + static cost estimate)."""
        from repro.sql.result import RoutingDecision

        if isinstance(plan, JoinSelectPlan):
            if plan.post.has_aggregates or plan.post.order_by:
                return (
                    RoutingDecision(
                        "aggregate" if plan.post.has_aggregates else "order-by",
                        False,
                        "join query: pushdown is single-table, proxy-side",
                    ),
                )
            return ()
        if not isinstance(plan, SelectPlan):
            return ()
        return self.executor.explain_pushdown(plan)

    def execute_join_select(self, plan: JoinSelectPlan, salt: bytes) -> ServerResult:
        return self.executor.select_join(plan, salt)

    def execute_insert(self, table_name: str, prepared_rows: list[dict]) -> int:
        inserted = self.executor.insert_prepared(table_name, prepared_rows)
        self._maybe_auto_merge(table_name)
        return inserted

    def execute_delete(self, plan: DeletePlan) -> int:
        deleted = self.executor.delete(plan)
        self._maybe_auto_merge(plan.table)
        return deleted

    def delete_record_ids(self, table_name: str, record_ids) -> int:
        """Targeted delete by RecordID (used by the proxy's UPDATE flow)."""
        table = self.catalog.table(table_name)
        return table.delete_rows(np.asarray(record_ids, dtype=np.int64))

    # ------------------------------------------------------------------
    # Automatic delta merging (paper §4.3, Hübner et al. strategies)
    # ------------------------------------------------------------------
    def enable_auto_merge(self, policy) -> None:
        """Install a :class:`~repro.columnstore.merge_policy.MergePolicy`;
        the server then merges tables whose delta stores grew past it."""
        self._merge_policy = policy

    def disable_auto_merge(self) -> None:
        self._merge_policy = None

    def _maybe_auto_merge(self, table_name: str) -> None:
        policy = self._merge_policy
        if policy is None:
            return
        if table_name in self.migrations.active_tables():
            # A merge rebuilds the partition layout out from under the
            # rotation's dual-version slots; the policy simply retries after
            # the migration finishes or rolls back.
            return
        table = self.catalog.table(table_name)
        if policy.should_merge(table):
            self.executor.merge(MergePlan(table_name))

    def execute_merge(self, plan: MergePlan) -> int:
        if plan.table in self.migrations.active_tables():
            raise QueryError(
                f"table {plan.table!r} has a rotation in flight; "
                "finish or roll back the migration before merging"
            )
        return self.executor.merge(plan)

    # ------------------------------------------------------------------
    # Online rotation (repro.migrate)
    # ------------------------------------------------------------------
    def migrate_start(
        self,
        table_name: str,
        column_name: str,
        *,
        new_kind: str | None = None,
        rotate_key: bool = False,
    ) -> MigrationStatus:
        return self.migrations.start(
            table_name, column_name, new_kind=new_kind, rotate_key=rotate_key
        )

    def migrate_step(
        self, table_name: str, column_name: str, steps: int = 1
    ) -> MigrationStatus:
        return self.migrations.step(table_name, column_name, steps)

    def migrate_run(self, table_name: str, column_name: str) -> MigrationStatus:
        return self.migrations.run(table_name, column_name)

    def migrate_status(
        self, table_name: str | None = None, column_name: str | None = None
    ) -> list[MigrationStatus]:
        return self.migrations.status(table_name, column_name)

    def migrate_rollback(
        self, table_name: str, column_name: str
    ) -> MigrationStatus:
        return self.migrations.rollback(table_name, column_name)

    def explain_migrations(self, plan) -> list[MigrationStatus]:
        """EXPLAIN hook: active rotations touching the plan's table(s)."""
        tables = {getattr(plan, "table", None), getattr(plan, "left_table", None),
                  getattr(plan, "right_table", None)}
        return [
            status
            for status in self.migrations.status()
            if status.active and status.table in tables
        ]

    # ------------------------------------------------------------------
    # Persistence (the storage-management box of Figure 5)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        if self.migrations.any_active:
            # The storage format records one kind and one epoch per column;
            # a half-swapped column has neither, so persisting mid-rotation
            # could resurrect into an unservable state.
            raise QueryError(
                "cannot save while a migration is in flight; "
                "finish or roll it back first"
            )
        save_database(self.catalog, path)

    def load(self, path: str | Path) -> None:
        loaded = load_database(path)
        if self.catalog.table_names():
            raise QueryError("load() requires an empty server catalog")
        self.catalog = loaded
        self.executor = Executor(self.catalog, self.enclave_host)
        self.migrations = MigrationManager(
            self.catalog, self.enclave_host, salt_rng=self._migration_salt_rng
        )
