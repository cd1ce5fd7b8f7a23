"""Fixed-row-count column partitions (MonetDB-style fragments).

Every stored column is a sequence of partitions; each partition carries its
own dictionary + attribute vector (plaintext or encrypted). RecordIDs stay
global — main-store rows first in partition order, delta rows after — and
map to ``(partition, offset)`` through the cumulative partition lengths.
Partitioning is a *layout* property: it never changes which RecordIDs a
query returns, only how the work is split (one dictionary search and one
attribute-vector scan per partition, and the merge rebuilds only dirty
partitions).

All columns of one table share identical per-partition lengths so rows stay
aligned across columns; :func:`partition_lengths` is the canonical split of
a row count into fixed-size chunks (every partition holds ``partition_rows``
rows except a shorter final one).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

#: Default rows per partition. Large enough that small interactive tables
#: stay single-partition (preserving the seed layout byte-for-byte), small
#: enough that multi-million-row columns split into a useful fan-out.
DEFAULT_PARTITION_ROWS = 1 << 17

#: Synthetic partition id of the append-only ED9 delta store (never a main
#: partition id, which are non-negative).
DELTA_PARTITION_ID = -1


def partition_lengths(row_count: int, partition_rows: int) -> list[int]:
    """Split ``row_count`` rows into fixed-size partition lengths."""
    if row_count < 0:
        raise ValueError("row_count must be non-negative")
    if partition_rows <= 0:
        raise ValueError("partition_rows must be positive")
    lengths = []
    remaining = row_count
    while remaining > 0:
        take = min(partition_rows, remaining)
        lengths.append(take)
        remaining -= take
    return lengths


def slice_rows(values: Sequence[Any], lengths: Sequence[int]) -> list[list[Any]]:
    """Cut a row-ordered value sequence into per-partition lists."""
    if sum(lengths) != len(values):
        raise ValueError(
            f"partition lengths sum to {sum(lengths)}, have {len(values)} rows"
        )
    parts: list[list[Any]] = []
    start = 0
    for length in lengths:
        parts.append(list(values[start : start + length]))
        start += length
    return parts


def partition_starts(lengths: Sequence[int]) -> list[int]:
    """Global RecordID of the first row of each partition."""
    starts: list[int] = []
    total = 0
    for length in lengths:
        starts.append(total)
        total += length
    return starts


class PartitionMap:
    """Global-RecordID ↔ ``(partition, offset)`` mapping over a layout."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        self.starts = partition_starts(self.lengths)
        self.total_rows = sum(self.lengths)

    def locate(self, record_id: int) -> tuple[int, int]:
        """``(partition index, offset within partition)`` of a main rid."""
        if not 0 <= record_id < self.total_rows:
            raise IndexError(f"RecordID {record_id} outside main store")
        index = int(np.searchsorted(self.starts, record_id, side="right")) - 1
        return index, record_id - self.starts[index]

    def dirty_partitions(self, validity: np.ndarray) -> list[int]:
        """Partitions containing at least one cleared validity bit."""
        dirty = []
        for index, (start, length) in enumerate(zip(self.starts, self.lengths)):
            if not bool(validity[start : start + length].all()):
                dirty.append(index)
        return dirty
