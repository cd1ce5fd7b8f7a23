"""Result rendering (paper §4.2 steps 12-13).

The server's result renderer undoes the dictionary split for the matching
RecordIDs and attaches the table and column metadata the proxy needs to
derive each column's key and decrypt. Plaintext columns come back as one
value per row. An encrypted column comes back in the dictionary-encoded
form the store already holds: ``data`` carries each *referenced*
dictionary entry once (PAE blobs, deduplicated by (partition, ValueID)) and
``index`` one int32 per row, so row ``i``'s blob is ``data[index[i]]`` and
the proxy decrypts once per entry rather than once per row.

That frame is a bijective re-encoding of the per-row one: the per-row
blobs are ``[data[i] for i in index]``, and since every entry's blob is
unique (fresh IVs), ``index`` follows from the per-row blobs by blob
equality. Neither side learns anything the other frame did not show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import QueryError


@dataclass
class ResultColumn:
    """One rendered column of a result set."""

    table_name: str
    column_name: str
    encrypted: bool
    #: Distinct referenced PAE blobs when ``encrypted``, else plaintext
    #: values, one per result row.
    data: list
    #: Storage-key epoch the blobs are sealed under (0 until a key rotation
    #: has finalized); the proxy derives the matching column key from it.
    key_epoch: int = 0
    #: Encrypted columns only: int32 per result row, the row's position in
    #: ``data``.
    index: np.ndarray | None = None

    def __len__(self) -> int:
        """The number of result rows."""
        return len(self.data) if self.index is None else len(self.index)

    def row_index(self, rows: int) -> np.ndarray:
        """The per-row entry index of an encrypted column, validated.

        The index comes from the untrusted server: it must be a 1-D integer
        array with one position per result row, each inside ``data``.
        Anything else is refused with a :class:`QueryError` — never an
        ``IndexError``, and never a silent wrap of a negative position.
        """
        index = self.index
        name = f"{self.table_name}.{self.column_name}"
        if (
            not isinstance(index, np.ndarray)
            or index.ndim != 1
            or index.dtype.kind not in "iu"
        ):
            raise QueryError(f"result column {name} lacks an integer row index")
        if len(index) != rows:
            raise QueryError(
                f"result column {name} indexes {len(index)} rows, expected {rows}"
            )
        if len(index) and (index.min() < 0 or index.max() >= len(self.data)):
            raise QueryError(
                f"result column {name} indexes outside its "
                f"{len(self.data)} entries"
            )
        return index


@dataclass
class ServerResult:
    """What the DBaaS provider returns for one SELECT/DELETE/UPDATE read."""

    table_name: str
    record_ids: np.ndarray
    columns: dict[str, ResultColumn] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return len(self.record_ids)


@dataclass(frozen=True)
class RoutingDecision:
    """One cost-based pushdown routing decision (analytics pushdown, PR 9).

    The server records, per post-processing clause, whether the clause was
    pushed into the enclave and why (or why not) — decisions travel back
    with the result and render in EXPLAIN. Reasons are structural/cost facts
    only (kinds, partition counts, estimated cycles), never values.
    """

    clause: str
    pushed: bool
    reason: str


@dataclass(frozen=True)
class AggregateFrames:
    """Pushed-down aggregation output: padded, PAE-encrypted group frames.

    Each frame seals one group's key and aggregate states (AVG as a
    sum+count pair) under the table's aggregate transit key. All frames of
    one response share a single byte length and the frame *count* is padded
    to the next power of two with indistinguishable dummy frames, so the
    wire reveals only an upper bound on the group cardinality — never row
    sets (DESIGN.md §14).
    """

    table_name: str
    #: ``None`` for a global (ungrouped) aggregate.
    group_column: str | None
    #: Aggregate output labels, in per-frame state order.
    labels: tuple[str, ...]
    frames: tuple[bytes, ...]


@dataclass(frozen=True)
class PushdownSelectResult:
    """What ``execute_select_pushdown`` returns: decisions + one payload.

    Exactly one of ``aggregate`` / ``rows`` is set. ``ordered`` marks a row
    payload that was already ordinal-ordered and LIMIT-truncated server-side
    (the proxy still re-sorts and re-limits the survivors — both are
    idempotent on an already-ordered prefix).
    """

    decisions: tuple[RoutingDecision, ...]
    aggregate: AggregateFrames | None = None
    rows: ServerResult | None = None
    ordered: bool = False


@dataclass
class QueryResult:
    """What the application finally receives from the proxy."""

    column_names: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """Convenience for single-cell results (e.g. ``COUNT(*)``)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError("result is not a single scalar")
        return self.rows[0][0]

    def column(self, name: str) -> list:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]
