"""Tables, validity vectors, and the catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import PlainStoredColumn
from repro.columnstore.table import Table
from repro.columnstore.types import ColumnSpec, IntegerType, VarcharType
from repro.exceptions import CatalogError, QueryError


def _specs():
    return [
        ColumnSpec("name", VarcharType(20)),
        ColumnSpec("age", IntegerType()),
    ]


def _loaded_table() -> Table:
    table = Table("people", _specs())
    names = PlainStoredColumn(table.specs[0], ["ann", "bob", "cara"])
    ages = PlainStoredColumn(table.specs[1], [30, 25, 41])
    table.attach_columns({"name": names, "age": ages}, 3)
    return table


def test_schema_validation():
    with pytest.raises(CatalogError):
        Table("bad name", _specs())
    with pytest.raises(CatalogError):
        Table("t", [])
    with pytest.raises(CatalogError):
        Table("t", [_specs()[0], _specs()[0]])


def test_spec_and_column_lookup():
    table = _loaded_table()
    assert table.spec("age").value_type == IntegerType()
    assert table.column_names == ["name", "age"]
    with pytest.raises(CatalogError):
        table.spec("salary")
    with pytest.raises(CatalogError):
        table.column("salary")


def test_attach_validates_shape():
    table = Table("people", _specs())
    names = PlainStoredColumn(table.specs[0], ["ann"])
    with pytest.raises(CatalogError):
        table.attach_columns({"name": names}, 1)  # age missing
    ages = PlainStoredColumn(table.specs[1], [30, 44])
    with pytest.raises(CatalogError):
        table.attach_columns({"name": names, "age": ages}, 2)  # ragged


def test_validity_lifecycle():
    table = _loaded_table()
    assert table.row_count == 3
    assert table.live_row_count == 3
    deleted = table.delete_rows(np.array([1]))
    assert deleted == 1
    assert table.live_row_count == 2
    # Deleting again is a no-op on the live count.
    assert table.delete_rows(np.array([1])) == 0
    assert table.filter_valid(np.array([0, 1, 2])).tolist() == [0, 2]
    assert table.all_valid_rids().tolist() == [0, 2]
    # A RecordID past the vector belongs to an insert that has reached the
    # column stores but is not registered yet: not visible, not an error.
    assert table.filter_valid(np.array([2, 3])).tolist() == [2]
    assert table.filter_valid(np.array([], dtype=np.int64)).tolist() == []


def test_delete_rejects_bad_rids():
    table = _loaded_table()
    with pytest.raises(QueryError):
        table.delete_rows(np.array([7]))
    with pytest.raises(QueryError):
        table.delete_rows(np.array([-1]))


def test_register_insert_extends_validity():
    table = _loaded_table()
    table.delete_rows(np.array([1]))
    table.register_inserts(2)
    assert table.row_count == 5
    assert table.validity.tolist() == [True, False, True, True, True]


def test_reset_validity_after_merge():
    table = _loaded_table()
    table.delete_rows(np.array([0]))
    table.reset_validity(2)
    assert table.row_count == 2
    assert table.live_row_count == 2


def test_catalog_crud():
    catalog = Catalog()
    catalog.create_table("t1", _specs())
    assert "t1" in catalog
    assert catalog.table("t1").name == "t1"
    assert catalog.table_names() == ["t1"]
    with pytest.raises(CatalogError):
        catalog.create_table("t1", _specs())
    catalog.drop_table("t1")
    assert "t1" not in catalog
    with pytest.raises(CatalogError):
        catalog.table("t1")
    with pytest.raises(CatalogError):
        catalog.drop_table("t1")


def test_catalog_iteration():
    catalog = Catalog()
    catalog.create_table("b", _specs())
    catalog.create_table("a", _specs())
    assert sorted(t.name for t in catalog) == ["a", "b"]
    assert catalog.table_names() == ["a", "b"]


def test_plain_column_search_and_delta():
    spec = ColumnSpec("name", VarcharType(10))
    column = PlainStoredColumn(spec, ["b", "d", "a"])
    assert column.search_range("a", "b").tolist() == [0, 2]
    rid = column.append("aa")
    assert rid == 3
    assert column.search_range("a", "b").tolist() == [0, 2, 3]
    assert column.value_at(3) == "aa"
    assert len(column) == 4


def test_plain_column_rejects_encrypted_spec():
    from repro.encdict.options import ED1

    with pytest.raises(CatalogError):
        PlainStoredColumn(ColumnSpec("x", IntegerType(), protection=ED1))


def test_plain_column_validates_values():
    spec = ColumnSpec("name", VarcharType(2))
    with pytest.raises(CatalogError):
        PlainStoredColumn(spec, ["too-long"])
    column = PlainStoredColumn(spec, ["ok"])
    with pytest.raises(CatalogError):
        column.append("nope")
