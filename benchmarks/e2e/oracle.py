"""The plaintext numpy oracle every benchmark result is checked against.

Expectations are computed from the generated plaintext columns only — never
from the system under test. A SELECT is summarised as ``(row count,
checksum)`` where the checksum is the wrapping 64-bit sum of a per-row hash
over the projected columns: order-independent (the server returns RecordID
order, which is not part of the contract) but sensitive to a wrong,
missing, duplicated or mis-paired row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_BYTE_WEIGHTS = np.random.Generator(np.random.PCG64(0xE2E)).integers(
    1, 1 << 62, size=64, dtype=np.uint64
) | np.uint64(1)
_STEP = np.uint64(0x9E3779B97F4A7C15)
_FINAL = np.uint64(0xBF58476D1CE4E5B9)


def string_array(values: Sequence[str], width: int) -> np.ndarray:
    """Fixed-width byte strings (``S<width>``) — sortable like the VARCHARs."""
    return np.asarray(values, dtype=f"S{width}")


def _column_hash(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind == "S":
        width = column.dtype.itemsize
        codes = np.ascontiguousarray(column).view(np.uint8).reshape(len(column), width)
        return codes.astype(np.uint64) @ _BYTE_WEIGHTS[:width]
    return column.astype(np.int64).view(np.uint64) * _BYTE_WEIGHTS[63]


def row_hashes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One 64-bit hash per row over ``columns`` (order of columns matters)."""
    hashed = np.zeros(len(columns[0]), dtype=np.uint64)
    for column in columns:
        hashed = hashed * _STEP + _column_hash(column)
        hashed ^= hashed >> np.uint64(29)
        hashed *= _FINAL
        hashed ^= hashed >> np.uint64(32)
    return hashed


def checksum(hashes: np.ndarray) -> int:
    return int(np.sum(hashes, dtype=np.uint64)) & _MASK


def result_digest(rows: Sequence[tuple], widths: Sequence[int | None]) -> tuple[int, int]:
    """``(row count, checksum)`` of a query result.

    ``widths[i]`` is the VARCHAR width of projected column ``i`` or ``None``
    for an integer column.
    """
    if not rows:
        return 0, 0
    columns = [
        string_array(values, width) if width else np.asarray(values, dtype=np.int64)
        for values, width in zip(zip(*rows), widths)
    ]
    return len(rows), checksum(row_hashes(columns))


class RangeOracle:
    """Expected ``(count, checksum)`` of closed range filters on one column.

    The column is sorted once; each expectation is two binary searches into
    a running checksum, so thousands of queries cost nothing at set-up.
    """

    def __init__(self, filter_column: np.ndarray, hashes: np.ndarray) -> None:
        order = np.argsort(filter_column, kind="stable")
        self.sorted = filter_column[order]
        self.uniques = np.unique(self.sorted)
        self._running = np.concatenate(
            (np.zeros(1, dtype=np.uint64), np.cumsum(hashes[order], dtype=np.uint64))
        )

    def expect(self, low: str, high: str) -> tuple[int, int]:
        first = int(np.searchsorted(self.sorted, low.encode("ascii"), side="left"))
        last = int(np.searchsorted(self.sorted, high.encode("ascii"), side="right"))
        total = (int(self._running[last]) - int(self._running[first])) & _MASK
        return last - first, total

    def window(self, start: int, size: int) -> tuple[str, str]:
        """Bounds of ``size`` consecutive unique values starting at ``start``."""
        return (
            self.uniques[start].decode("ascii"),
            self.uniques[start + size - 1].decode("ascii"),
        )

    def window_rows(self, size: int) -> np.ndarray:
        """Row count of every window of ``size`` consecutive unique values."""
        left = np.searchsorted(self.sorted, self.uniques, side="left")
        right = np.searchsorted(self.sorted, self.uniques, side="right")
        count = len(self.uniques) - size + 1
        return right[size - 1 : size - 1 + count] - left[:count]


def masked_expectation(
    mask: np.ndarray, hashes: np.ndarray
) -> tuple[int, int]:
    """``(count, checksum)`` of the rows selected by a boolean mask."""
    return int(mask.sum()), checksum(hashes[mask])


class GroupOracle:
    """Expected ``{group: (COUNT(*), SUM(measure))}`` per measure range."""

    def __init__(self, group_column: np.ndarray, measure: np.ndarray) -> None:
        groups, self._codes = np.unique(group_column, return_inverse=True)
        self._groups = [group.decode("ascii") for group in groups]
        self._measure = measure

    def expect(self, low: int, high: int) -> dict[str, tuple[int, int]]:
        mask = (self._measure >= low) & (self._measure <= high)
        codes = self._codes[mask]
        counts = np.bincount(codes, minlength=len(self._groups))
        sums = np.bincount(
            codes, weights=self._measure[mask].astype(np.float64), minlength=len(self._groups)
        )
        return {
            self._groups[code]: (int(counts[code]), int(round(sums[code])))
            for code in np.flatnonzero(counts)
        }
