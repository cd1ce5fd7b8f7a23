"""Persistence-layer tests including a property-based roundtrip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import EncryptedStoredColumn, PlainStoredColumn
from repro.columnstore.storage import load_database, save_database
from repro.columnstore.types import ColumnSpec, IntegerType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae, pae_gen
from repro.encdict.builder import encdb_build
from repro.encdict.options import ED2, ED7


def _catalog_with_data(values, numbers):
    catalog = Catalog()
    specs = [
        ColumnSpec("v", VarcharType(12), protection=ED2),
        ColumnSpec("n", IntegerType()),
    ]
    table = catalog.create_table("t", specs)
    rng = HmacDrbg(b"storage-tests")
    pae = default_pae(rng=rng.fork("pae"))
    key = pae_gen(rng=rng.fork("key"))
    build = encdb_build(
        values,
        ED2,
        value_type=VarcharType(12),
        key=key,
        pae=pae,
        rng=rng.fork("build"),
        table_name="t",
        column_name="v",
    )
    encrypted = EncryptedStoredColumn(specs[0], build)
    encrypted.bind("t")
    plain = PlainStoredColumn(specs[1], numbers)
    table.attach_columns({"v": encrypted, "n": plain}, len(values))
    return catalog, key, pae


def test_roundtrip_preserves_everything(tmp_path):
    catalog, key, pae = _catalog_with_data(["aa", "bb", "aa"], [1, 2, 3])
    table = catalog.table("t")
    table.column("n").append(9)
    # Every column must grow for a row insert; store the delta blob directly
    # (the enclave re-encryption path is exercised in the system tests).
    table.column("v").delta_blobs.append(pae.encrypt(key, b"cc"))
    table.register_inserts(1)
    table.delete_rows(np.array([1]))
    path = tmp_path / "db.encdbdb"
    save_database(catalog, path)

    loaded = load_database(path)
    loaded_table = loaded.table("t")
    assert loaded_table.column_names == ["v", "n"]
    assert loaded_table.row_count == 4
    assert loaded_table.live_row_count == 3
    assert loaded_table.validity.tolist() == [True, False, True, True]

    original_column = table.column("v")
    loaded_column = loaded_table.column("v")
    assert bytes(loaded_column.main_build.dictionary.tail) == bytes(
        original_column.main_build.dictionary.tail
    )
    assert (
        loaded_column.main_build.attribute_vector.tolist()
        == original_column.main_build.attribute_vector.tolist()
    )
    assert loaded_column.main_build.dictionary.enc_rnd_offset is not None
    assert loaded_table.column("n").delta_values == [9]
    # The loaded encrypted dictionary still decrypts under the same key.
    blob = loaded_column.main_build.dictionary.entry(0)
    assert pae.decrypt(key, blob) in (b"aa", b"bb")


def test_loaded_spec_metadata(tmp_path):
    catalog, _, _ = _catalog_with_data(["x"], [0])
    path = tmp_path / "db.encdbdb"
    save_database(catalog, path)
    loaded = load_database(path)
    spec = loaded.table("t").spec("v")
    assert spec.protection == ED2
    assert spec.value_type == VarcharType(12)
    assert loaded.table("t").spec("n").protection is None


def test_empty_catalog_roundtrip(tmp_path):
    path = tmp_path / "empty.encdbdb"
    save_database(Catalog(), path)
    assert load_database(path).table_names() == []


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(
        st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=15
    ),
    numbers=st.lists(st.integers(-1000, 1000), min_size=1, max_size=15),
)
def test_roundtrip_property(tmp_path_factory, values, numbers):
    numbers = (numbers * ((len(values) // len(numbers)) + 1))[: len(values)]
    catalog, key, pae = _catalog_with_data(values, numbers)
    path = tmp_path_factory.mktemp("prop") / "db.encdbdb"
    save_database(catalog, path)
    loaded = load_database(path)
    table = loaded.table("t")
    assert table.row_count == len(values)
    # Plain column content survives exactly.
    plain = table.column("n")
    assert [plain.value_at(i) for i in range(len(values))] == numbers
    # Encrypted column round-trips blob-for-blob.
    original = catalog.table("t").column("v").main_build.dictionary
    reloaded = table.column("v").main_build.dictionary
    assert bytes(reloaded.tail) == bytes(original.tail)
    assert reloaded.offsets.tolist() == original.offsets.tolist()


def test_hiding_kind_roundtrip(tmp_path):
    """ED7 columns (|D| = |AV|) persist and reload correctly."""
    catalog = Catalog()
    spec = ColumnSpec("v", VarcharType(6), protection=ED7)
    table = catalog.create_table("t", [spec])
    rng = HmacDrbg(b"ed7")
    pae = default_pae(rng=rng.fork("pae"))
    key = pae_gen(rng=rng.fork("key"))
    build = encdb_build(
        ["x", "x", "y"], ED7, value_type=VarcharType(6), key=key, pae=pae,
        rng=rng.fork("b"), table_name="t", column_name="v",
    )
    column = EncryptedStoredColumn(spec, build)
    column.bind("t")
    table.attach_columns({"v": column}, 3)
    path = tmp_path / "ed7.encdbdb"
    save_database(catalog, path)
    loaded = load_database(path)
    assert len(loaded.table("t").column("v").main_build.dictionary) == 3

def test_storage_bytes_unchanged_by_batched_encryption(tmp_path):
    """Byte-identity of storage files across the batch-IV change (PR 6).

    The same seeded build, once with the vectorized ``encrypt_many`` and once
    with it forced back to the per-item ``encrypt`` loop, must produce
    byte-for-byte identical database files: the batched DRBG draw replays the
    exact sequential IV stream.
    """
    from repro import EncDBDBSystem
    from repro.crypto.pae import Pae

    def _build_and_save(path):
        system = EncDBDBSystem.create(seed=47)
        system.execute("CREATE TABLE b (v ED3 VARCHAR(10), u ED8 VARCHAR(10))")
        system.bulk_load(
            "b",
            {
                "v": [f"v{i % 7:03d}" for i in range(25)],
                "u": [f"u{(i * 5) % 11:03d}" for i in range(25)],
            },
            partition_rows=8,
        )
        system.save(path)

    batched_path = tmp_path / "batched.encdbdb"
    _build_and_save(batched_path)

    naive_path = tmp_path / "naive.encdbdb"
    original = Pae.encrypt_many

    def per_item_loop(self, key, plaintexts, aad=b"", *, rng=None):
        return [self.encrypt(key, pt, aad, rng=rng) for pt in plaintexts]

    Pae.encrypt_many = per_item_loop
    try:
        _build_and_save(naive_path)
    finally:
        Pae.encrypt_many = original

    assert batched_path.read_bytes() == naive_path.read_bytes()


def test_partitioned_roundtrip_preserves_layout_and_answers(tmp_path):
    """Save/load of a multi-partition table keeps partition ids, layout,
    and query answers intact (the v2 storage frames)."""
    from repro import EncDBDBSystem
    from repro.server.dbms import EncDBDBServer

    system = EncDBDBSystem.create(seed=31)
    system.execute("CREATE TABLE p (v ED2 VARCHAR(10), n INTEGER)")
    system.bulk_load(
        "p",
        {"v": [f"v{i:03d}" for i in range(20)], "n": list(range(20))},
        partition_rows=6,
    )
    system.execute("INSERT INTO p VALUES ('extra', 99)")
    system.execute("DELETE FROM p WHERE n = 3")
    path = tmp_path / "parts.encdbdb"
    system.save(path)

    original = system.server.catalog.table("p")
    restored_server = EncDBDBServer()
    restored_server.load(path)
    restored = restored_server.catalog.table("p")
    column = restored.column("v")
    assert column.partition_lengths == original.column("v").partition_lengths
    assert column.partition_ids == original.column("v").partition_ids
    assert column._next_partition_id == original.column("v")._next_partition_id
    assert restored.partition_rows == original.partition_rows
    assert restored.column("n").partition_lengths == [6, 6, 6, 2]
    assert restored.validity.tolist() == original.validity.tolist()
    assert len(column.delta_blobs) == 1
