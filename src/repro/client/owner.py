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
from repro.encdict.builder import BuildResult, encdb_build
from repro.encdict.pipeline import ColumnPlan, build_partitions
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
        self, table_name: str, spec: ColumnSpec, values: Sequence
    ) -> BuildResult:
        """Run ``EncDB`` for one whole column according to its selected kind."""
        if not spec.is_encrypted:
            raise CatalogError(f"column {spec.name!r} is not encrypted")
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
        :meth:`encrypt_column` loop of an unpartitioned deploy performs.
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
    ) -> int:
        """Step 4: split/encrypt every column and bulk-import the table.

        ``partition_rows`` selects a partitioned layout: every column is
        built as fixed-row-count per-partition dictionaries by the streaming
        build, in this thread, and the partition stream is handed to the
        server's ``bulk_load_stream``. Column sources may then be any
        row-order iterables, including generators. An in-process server
        installs each partition as it completes, so peak transient memory is
        O(partition); a remote server's stub collects the stream into the one
        ``bulk_load`` payload the wire ships, a cluster router one payload
        per shard span. Without ``partition_rows`` the historical
        single-dictionary build is used. Either way the layout is the
        owner's choice; the server only ever sees finished builds.
        """
        if partition_rows is not None:
            plans = self.build_plans(server, table_name, columns)
            return server.bulk_load_stream(
                table_name,
                build_partitions(
                    table_name, plans, partition_rows=partition_rows, pae=self.pae
                ),
            )
        table = server.catalog.table(table_name)
        plain_columns = {}
        encrypted_builds: dict[str, BuildResult] = {}
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
