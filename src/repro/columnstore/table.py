"""Tables: named columns plus the validity vector of the delta-store design.

The overall state of a row is the conjunction of the column stores and a
table-level validity bit (paper §4.3): inserts append to every column's
delta store, deletes clear the bit, updates are delete + insert. Reads merge
main and delta results and drop invalid RecordIDs. A periodic merge rebuilds
the main stores from the surviving rows and compacts RecordIDs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnstore.column import EncryptedStoredColumn, PlainStoredColumn
from repro.columnstore.types import ColumnSpec
from repro.exceptions import CatalogError, QueryError

StoredColumn = PlainStoredColumn | EncryptedStoredColumn


class Table:
    """One table of the column store."""

    def __init__(self, name: str, specs: Sequence[ColumnSpec]) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        if not specs:
            raise CatalogError("a table needs at least one column")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name}")
        self.name = name
        self.specs = list(specs)
        self.columns: dict[str, StoredColumn] = {}
        self._validity = np.empty(0, dtype=bool)
        #: Target rows per main-store partition; all columns of the table
        #: share one partition layout so rows stay aligned across columns.
        self.partition_rows: int | None = None

    # ------------------------------------------------------------------
    # Schema access
    # ------------------------------------------------------------------
    def spec(self, column_name: str) -> ColumnSpec:
        for spec in self.specs:
            if spec.name == column_name:
                return spec
        raise CatalogError(f"table {self.name} has no column {column_name!r}")

    def column(self, column_name: str) -> StoredColumn:
        self.spec(column_name)  # raises for unknown names
        return self.columns[column_name]

    @property
    def column_names(self) -> list[str]:
        return [spec.name for spec in self.specs]

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._validity)

    @property
    def live_row_count(self) -> int:
        return int(self._validity.sum())

    @property
    def validity(self) -> np.ndarray:
        return self._validity

    def attach_columns(self, columns: dict[str, StoredColumn], row_count: int) -> None:
        """Install the bulk-loaded column stores (data-owner deployment)."""
        missing = set(self.column_names) - set(columns)
        if missing:
            raise CatalogError(f"missing column data for {sorted(missing)}")
        for name, column in columns.items():
            if len(column) != row_count:
                raise CatalogError(
                    f"column {name} has {len(column)} rows, expected {row_count}"
                )
        self.columns = dict(columns)
        self._validity = np.ones(row_count, dtype=bool)

    def register_inserts(self, count: int) -> None:
        """Commit one statement's ``count`` appended rows as valid."""
        self._validity = np.concatenate([self._validity, np.ones(count, dtype=bool)])

    def delete_rows(self, record_ids: np.ndarray) -> int:
        """Clear validity bits; returns how many rows were actually live."""
        record_ids = np.asarray(record_ids, dtype=np.int64)
        if len(record_ids) and (
            record_ids.min() < 0 or record_ids.max() >= self.row_count
        ):
            raise QueryError("RecordID out of range in delete")
        live = int(self._validity[record_ids].sum())
        self._validity[record_ids] = False
        return live

    def filter_valid(self, record_ids: np.ndarray) -> np.ndarray:
        """Drop RecordIDs whose validity bit is cleared (read-path merge).

        The validity vector is an INSERT statement's commit point: a
        concurrent insert extends every column's delta store before
        :meth:`register_inserts` runs, so a scan may already return those
        rows' RecordIDs — past the end of the vector, not yet visible.
        """
        record_ids = np.asarray(record_ids, dtype=np.int64)
        validity = self._validity
        record_ids = record_ids[record_ids < len(validity)]
        return record_ids[validity[record_ids]]

    def all_valid_rids(self) -> np.ndarray:
        return np.nonzero(self._validity)[0].astype(np.int64)

    def reset_validity(self, row_count: int) -> None:
        """After a merge: all surviving rows are valid and compacted."""
        self._validity = np.ones(row_count, dtype=bool)
