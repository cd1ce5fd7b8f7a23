"""Plaintext dictionary encoding (paper §2.1).

A column ``C`` is split into a dictionary ``D`` (each unique value once,
sorted) and an attribute vector ``AV`` of ValueIDs such that
``D[AV[j]] == C[j]`` for every RecordID ``j`` (Definition 1). Range search is
the two-step dictionary-then-attribute-vector scan the whole paper builds
on. This module is both the reference used in property tests and the storage
layout for unprotected columns.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np


def split_column(values: Sequence[Any]) -> tuple[list[Any], np.ndarray]:
    """Split ``values`` into a sorted unique dictionary and attribute vector.

    >>> dictionary, av = split_column(["b", "a", "b"])
    >>> dictionary
    ['a', 'b']
    >>> av.tolist()
    [1, 0, 1]
    """
    dictionary = sorted(set(values))
    index = {value: vid for vid, value in enumerate(dictionary)}
    attribute_vector = np.fromiter(
        (index[value] for value in values), dtype=np.int64, count=len(values)
    )
    return dictionary, attribute_vector


def attribute_vector_bits(dictionary_size: int) -> int:
    """Bits per ValueID: ``i`` bits represent ``2^i`` dictionary entries."""
    if dictionary_size <= 1:
        return 1
    return (dictionary_size - 1).bit_length()


def attribute_vector_bytes_per_entry(dictionary_size: int) -> int:
    """Byte-granular ValueID width used for storage accounting."""
    return max(1, (attribute_vector_bits(dictionary_size) + 7) // 8)


def attribute_vector_bytes(av_length: int, dictionary_size: int) -> int:
    """Packed size of an ``av_length``-row attribute vector into a
    dictionary of ``dictionary_size`` entries (plaintext or encrypted)."""
    return av_length * attribute_vector_bytes_per_entry(dictionary_size)


@dataclass
class DictionaryEncodedColumn:
    """A plaintext dictionary-encoded column with range search.

    The dictionary is kept sorted so the dictionary search is two binary
    searches; the attribute-vector search is a vectorized scan, matching the
    parallelizable linear scan of §2.1.
    """

    dictionary: list[Any]
    attribute_vector: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "DictionaryEncodedColumn":
        dictionary, attribute_vector = split_column(values)
        return cls(dictionary, attribute_vector)

    def __len__(self) -> int:
        return len(self.attribute_vector)

    def value_at(self, record_id: int) -> Any:
        """Undo the split for one RecordID (tuple reconstruction)."""
        return self.dictionary[self.attribute_vector[record_id]]

    def values(self) -> list[Any]:
        """Materialize the original column."""
        return [self.dictionary[vid] for vid in self.attribute_vector]

    def dictionary_search(self, low: Any, high: Any) -> tuple[int, int]:
        """ValueID interval ``[vid_min, vid_max]`` of values in ``[low, high]``.

        Returns an empty interval (``vid_min > vid_max``) when nothing falls
        in the range.
        """
        vid_min = bisect.bisect_left(self.dictionary, low)
        vid_max = bisect.bisect_right(self.dictionary, high) - 1
        return vid_min, vid_max

    def attribute_vector_search(self, vid_min: int, vid_max: int) -> np.ndarray:
        """RecordIDs whose ValueID falls in ``[vid_min, vid_max]``."""
        if vid_min > vid_max:
            return np.empty(0, dtype=np.int64)
        mask = (self.attribute_vector >= vid_min) & (self.attribute_vector <= vid_max)
        return np.nonzero(mask)[0].astype(np.int64)

    def range_search(self, low: Any, high: Any) -> np.ndarray:
        """RecordIDs of all entries with ``low <= value <= high``."""
        vid_min, vid_max = self.dictionary_search(low, high)
        return self.attribute_vector_search(vid_min, vid_max)

    def storage_bytes(self, value_size) -> int:
        """Approximate storage footprint for the paper's Table 6 accounting.

        ``value_size`` maps a dictionary value to its serialized size in
        bytes.
        """
        dictionary_bytes = sum(value_size(value) for value in self.dictionary)
        return dictionary_bytes + attribute_vector_bytes(
            len(self.attribute_vector), len(self.dictionary)
        )
