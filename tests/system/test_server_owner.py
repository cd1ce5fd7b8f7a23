"""Server bulk-load/DDL validation and data-owner edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.owner import DataOwner
from repro.columnstore.types import ColumnSpec, IntegerType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.encdict.options import ED1, ED3
from repro.exceptions import CatalogError, QueryError
from repro.server.dbms import EncDBDBServer
from repro.sql.planner import CreatePlan


def _server_with_table():
    server = EncDBDBServer(rng=HmacDrbg(b"server"))
    specs = (
        ColumnSpec("v", VarcharType(10), protection=ED1),
        ColumnSpec("n", IntegerType()),
    )
    server.create_table(CreatePlan("t", specs))
    return server


def test_create_table_attaches_empty_columns():
    server = _server_with_table()
    table = server.catalog.table("t")
    assert table.row_count == 0
    assert len(table.column("v")) == 0
    assert len(table.column("n")) == 0


def test_bulk_load_validation_paths():
    server = _server_with_table()
    owner = DataOwner(rng=HmacDrbg(b"owner"))
    owner.attest_and_provision(server)
    build = owner.encrypt_column("t", server.catalog.table("t").spec("v"), ["a", "b"])

    with pytest.raises(CatalogError):  # missing column
        server.bulk_load("t", encrypted_builds={"v": build})
    with pytest.raises(CatalogError):  # ragged lengths
        server.bulk_load(
            "t", plain_columns={"n": [1, 2, 3]}, encrypted_builds={"v": build}
        )
    with pytest.raises(CatalogError):  # plain data for encrypted column
        server.bulk_load("t", plain_columns={"v": ["a"], "n": [1]})
    # Wrong-kind build for the declared protection:
    wrong_kind = owner._rng  # reuse rng; build ED3 for an ED1 column
    from repro.encdict.builder import encdb_build

    bad_build = encdb_build(
        ["a", "b"],
        ED3,
        value_type=VarcharType(10),
        key=owner.column_key("t", "v"),
        pae=owner.pae,
        rng=HmacDrbg(b"bad"),
        table_name="t",
        column_name="v",
    )
    with pytest.raises(CatalogError):
        server.bulk_load(
            "t", plain_columns={"n": [1, 2]}, encrypted_builds={"v": bad_build}
        )

    assert server.bulk_load(
        "t", plain_columns={"n": [1, 2]}, encrypted_builds={"v": build}
    ) == 2
    with pytest.raises(CatalogError):  # double load
        server.bulk_load(
            "t", plain_columns={"n": [1, 2]}, encrypted_builds={"v": build}
        )


def test_owner_deploy_requires_all_columns():
    server = _server_with_table()
    owner = DataOwner(rng=HmacDrbg(b"owner"))
    owner.attest_and_provision(server)
    with pytest.raises(CatalogError):
        owner.deploy_table(server, "t", {"v": ["a"]})


def test_owner_encrypt_column_rejects_plain_spec():
    owner = DataOwner(rng=HmacDrbg(b"owner"))
    with pytest.raises(CatalogError):
        owner.encrypt_column("t", ColumnSpec("n", IntegerType()), [1])


def test_drop_table():
    server = _server_with_table()
    server.drop_table("t")
    with pytest.raises(CatalogError):
        server.catalog.table("t")


def test_load_requires_empty_catalog(tmp_path):
    server = _server_with_table()
    path = tmp_path / "db.encdbdb"
    server.save(path)
    with pytest.raises(QueryError):
        server.load(path)  # still holds table 't'


def test_delete_record_ids():
    server = _server_with_table()
    owner = DataOwner(rng=HmacDrbg(b"owner"))
    owner.attest_and_provision(server)
    owner.deploy_table(server, "t", {"v": ["a", "b", "c"], "n": [1, 2, 3]})
    assert server.delete_record_ids("t", np.array([0, 2])) == 2
    assert server.catalog.table("t").live_row_count == 1


def test_two_owners_cannot_share_one_enclave_key():
    """Provisioning overwrites SKDB: only the latest owner's data decrypts."""
    server = _server_with_table()
    owner_a = DataOwner(rng=HmacDrbg(b"owner-a"))
    owner_a.attest_and_provision(server)
    owner_b = DataOwner(rng=HmacDrbg(b"owner-b"))
    owner_b.attest_and_provision(server)
    # Data encrypted under owner A's key now fails enclave-side decryption.
    build = owner_a.encrypt_column(
        "t", server.catalog.table("t").spec("v"), ["a", "b"]
    )
    server.bulk_load("t", plain_columns={"n": [1, 2]}, encrypted_builds={"v": build})
    from repro.client.proxy import encrypt_search_range
    from repro.encdict.search import OrdinalRange
    from repro.exceptions import AuthenticationError

    tau = encrypt_search_range(
        owner_a.pae,
        owner_a.column_key("t", "v"),
        OrdinalRange(0, VarcharType(10).domain_size - 1),
    )
    with pytest.raises(AuthenticationError):
        server.enclave_host.ecall("dict_search", [(build.dictionary, tau)])
