"""The data owner: key generation, attestation, provisioning, EncDB.

Implements the setup phase of paper §4.2: generate ``SKDB`` ( 1 ), attest
the server enclave and deploy the key through the secure channel ( 2 ),
split and encrypt every column locally so plaintext never leaves the
trusted realm ( 3 ), and import the encrypted database at the provider
( 4 ).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.columnstore.types import ColumnSpec
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import Pae, default_pae, pae_gen
from repro.encdict.builder import (
    BuildResult,
    encdb_build,
    encdb_build_partitioned,
)
from repro.encdict.pipeline import BuildPipeline, ColumnPlan
from repro.exceptions import CatalogError
from repro.sgx.channel import SecureChannel

if TYPE_CHECKING:  # the owner only needs the server *surface*; at runtime
    # this may be an in-process EncDBDBServer or a repro.net RemoteServer stub.
    from repro.server.dbms import EncDBDBServer


class DataOwner:
    """Holds ``SKDB`` and prepares/provisions the encrypted database."""

    def __init__(
        self,
        *,
        rng: HmacDrbg | None = None,
        pae: Pae | None = None,
        master_key: bytes | None = None,
    ) -> None:
        self._rng = rng if rng is not None else HmacDrbg(b"data-owner")
        self.pae = pae if pae is not None else default_pae(rng=self._rng.fork("pae"))
        # Step 1: SKDB = PAE_Gen(1^λ) — unless the owner resumes with a key it
        # already generated (e.g. reconnecting to a restarted remote server
        # that unsealed the same SKDB from sealed storage).
        self.master_key = (
            master_key if master_key is not None else pae_gen(rng=self._rng.fork("skdb"))
        )

    def attest_and_provision(
        self, server: "EncDBDBServer", *, expected_measurement: bytes | None = None
    ) -> None:
        """Step 2: attest the enclave, then push ``SKDB`` through the channel.

        ``expected_measurement`` is the enclave identity the owner audited;
        it defaults to the deployed enclave's advertised measurement (in a
        real deployment the owner pins the value out of band).
        """
        expected = (
            expected_measurement
            if expected_measurement is not None
            else server.measurement
        )
        offer = server.enclave_channel_offer()
        channel, client_public = SecureChannel.connect(
            offer,
            server.attestation,
            expected,
            rng=self._rng.fork("channel"),
            pae=self.pae,
        )
        server.enclave_channel_accept(client_public)
        server.enclave_provision(channel.send(self.master_key))

    # ------------------------------------------------------------------
    # Step 3: EncDB on the owner's plaintext database
    # ------------------------------------------------------------------
    def column_key(self, table_name: str, column_name: str) -> bytes:
        return derive_column_key(self.master_key, table_name, column_name)

    def encrypt_column(
        self,
        table_name: str,
        spec: ColumnSpec,
        values: Sequence,
        *,
        partition_rows: int | None = None,
    ) -> BuildResult | list[BuildResult]:
        """Run ``EncDB`` for one column according to its selected kind.

        With ``partition_rows`` the column is built as a list of independent
        per-partition dictionaries (fixed-row-count chunks in row order);
        without it the historical single build is returned.
        """
        if not spec.is_encrypted:
            raise CatalogError(f"column {spec.name!r} is not encrypted")
        if partition_rows is not None:
            return encdb_build_partitioned(
                list(values),
                spec.protection,
                partition_rows=partition_rows,
                value_type=spec.value_type,
                key=self.column_key(table_name, spec.name),
                pae=self.pae,
                rng=self._rng.fork(f"encdb-{table_name}-{spec.name}"),
                bsmax=spec.bsmax,
                table_name=table_name,
                column_name=spec.name,
            )
        return encdb_build(
            list(values),
            spec.protection,
            value_type=spec.value_type,
            key=self.column_key(table_name, spec.name),
            pae=self.pae,
            rng=self._rng.fork(f"encdb-{table_name}-{spec.name}"),
            bsmax=spec.bsmax,
            table_name=table_name,
            column_name=spec.name,
        )

    def build_plans(
        self, server: EncDBDBServer, table_name: str, columns: dict
    ) -> dict[str, ColumnPlan]:
        """The per-column :class:`ColumnPlan`\\ s of one table deployment.

        Column DRBGs are forked in spec order — the same fork sequence the
        serial :meth:`encrypt_column` loop performs — so a pipelined build
        consumes exactly the randomness of a serial one.
        """
        table = server.catalog.table(table_name)
        plans: dict[str, ColumnPlan] = {}
        for spec in table.specs:
            if spec.name not in columns:
                raise CatalogError(f"no data provided for column {spec.name!r}")
            if spec.is_encrypted:
                plans[spec.name] = ColumnPlan(
                    spec,
                    columns[spec.name],
                    key=self.column_key(table_name, spec.name),
                    rng=self._rng.fork(f"encdb-{table_name}-{spec.name}"),
                )
            else:
                plans[spec.name] = ColumnPlan(spec, columns[spec.name])
        return plans

    def deploy_table(
        self,
        server: EncDBDBServer,
        table_name: str,
        columns: dict[str, list],
        *,
        partition_rows: int | None = None,
        max_workers: int | None = None,
    ) -> int:
        """Step 4: split/encrypt every column and bulk-import the table.

        ``partition_rows`` selects a partitioned layout: every column is
        built as fixed-row-count per-partition dictionaries — by the
        streaming build pipeline, whose (column × partition) tasks run on
        up to ``max_workers`` threads (artifacts are byte-identical for any
        worker count). Column sources may then be any row-order iterables,
        including generators. Against an in-process server the partitions
        stream into the column store as they complete, so peak transient
        memory is O(partition); a remote
        server (one ``bulk_load`` payload on the wire) gets the collected
        builds. Without ``partition_rows`` the historical single-dictionary
        build is used. Either way the layout is the owner's choice; the
        server only ever sees finished builds.
        """
        if partition_rows is not None:
            pipeline = BuildPipeline(pae=self.pae, max_workers=max_workers)
            plans = self.build_plans(server, table_name, columns)
            load_stream = getattr(server, "bulk_load_stream", None)
            if load_stream is not None:
                return load_stream(
                    table_name,
                    pipeline.build_stream(
                        table_name, plans, partition_rows=partition_rows
                    ),
                )
            encrypted_builds, plain_columns = pipeline.build_columns(
                table_name, plans, partition_rows=partition_rows
            )
            return server.bulk_load(
                table_name,
                plain_columns=plain_columns,
                encrypted_builds=encrypted_builds,
            )
        table = server.catalog.table(table_name)
        plain_columns = {}
        encrypted_builds: dict[str, BuildResult | list[BuildResult]] = {}
        for spec in table.specs:
            if spec.name not in columns:
                raise CatalogError(f"no data provided for column {spec.name!r}")
            values = columns[spec.name]
            if spec.is_encrypted:
                encrypted_builds[spec.name] = self.encrypt_column(
                    table_name, spec, values
                )
            else:
                plain_columns[spec.name] = list(values)
        return server.bulk_load(
            table_name,
            plain_columns=plain_columns,
            encrypted_builds=encrypted_builds,
        )
