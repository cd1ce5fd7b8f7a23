"""``AttrVectSearch``: the untrusted attribute-vector scan.

Runs entirely outside the enclave (paper §3.1): given the ValueID ranges or
list produced by ``EnclDictSearch``, it linearly scans the attribute vector
and returns the matching RecordIDs. Only integers are compared, which the
paper highlights as highly optimized — here the scan is one vectorized
numpy pass per attribute vector, run in the calling thread (DESIGN.md §9
records why no worker pool wraps it).

Cost accounting is *uniform over range slots*: every slot of
``result.ranges`` — real, empty (``low > high``), or the explicit
``(-1, -1)`` dummy padding — charges one comparison per attribute-vector
entry. The ranges arrive padded to a fixed width precisely so the untrusted
side cannot tell how many were real (§4.1); an honest cost model therefore
must not make the comparison count depend on that secret either. A
sorted-dictionary query always charges ``2·|AV|``, exactly Table 4's
``O(|AV|)`` row. Wall-clock execution still skips non-matchable slots —
that shortcut is untrusted-side and data-independent given the padded
result shape. The explicit-ValueID path (unsorted dictionaries) charges
``|AV|·|vids|``, Table 4's ``O(|AV|·|vid|)`` row, unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.encdict.search import DUMMY_RANGE, SearchResult
from repro.sgx.costs import CostModel


def _prepare_scan(
    attribute_vector: np.ndarray, result: SearchResult
) -> tuple[int, list[tuple[int, int]], np.ndarray | None]:
    """Uniform cost + matchable slots of one attribute-vector scan.

    Returns ``(comparisons, matchable_ranges, vids)``. The comparison count
    is charged per padded slot regardless of whether the slot is real, empty
    or dummy — see the module docstring.
    """
    n = len(attribute_vector)
    comparisons = 0
    matchable_ranges: list[tuple[int, int]] = []
    for low, high in result.ranges:
        # Uniform charge per slot: the slot count is padding-fixed, so the
        # comparison count must not reveal how many slots were real.
        comparisons += n
        if (low, high) == DUMMY_RANGE:
            # Dummy padding from the rotated/sorted searches: by
            # construction it matches nothing; skip the actual scan.
            continue
        if low > high:
            # Empty real range (e.g. an unsatisfiable filter): same
            # treatment as a dummy — charged, not scanned.
            continue
        matchable_ranges.append((low, high))

    vids: np.ndarray | None = None
    if result.vids:
        vids = np.asarray(result.vids, dtype=attribute_vector.dtype)
        comparisons += n * len(vids)
    return comparisons, matchable_ranges, vids


def _scan(
    attribute_vector: np.ndarray,
    ranges: Sequence[tuple[int, int]],
    vids: np.ndarray | None,
) -> np.ndarray:
    """RecordIDs of one prepared scan (no cost accounting)."""
    # Short-circuit: nothing can match (all slots dummy/empty, no ValueIDs).
    if len(attribute_vector) == 0 or (not ranges and vids is None):
        return np.empty(0, dtype=np.int64)
    mask = np.zeros(len(attribute_vector), dtype=bool)
    for low, high in ranges:
        mask |= (attribute_vector >= low) & (attribute_vector <= high)
    if vids is not None:
        mask |= np.isin(attribute_vector, vids)
    return np.nonzero(mask)[0].astype(np.int64)


def attr_vect_search(
    attribute_vector: np.ndarray,
    result: SearchResult,
    *,
    cost_model: CostModel | None = None,
) -> np.ndarray:
    """RecordIDs whose ValueID matches the dictionary-search result.

    For range results (sorted/rotated dictionaries) each attribute-vector
    entry is compared against the fixed number of ``[low, high]`` range
    slots; for explicit ValueID lists (unsorted dictionaries) every entry
    is compared against every returned ValueID — the ``O(|AV| * |vid|)``
    cost of Table 4.
    """
    comparisons, matchable_ranges, vids = _prepare_scan(attribute_vector, result)
    if cost_model is not None:
        cost_model.record_comparison(comparisons)
    return _scan(attribute_vector, matchable_ranges, vids)


def attr_vect_search_many(
    jobs: Sequence[tuple[np.ndarray, SearchResult]],
    *,
    cost_model: CostModel | None = None,
) -> list[np.ndarray]:
    """Scan many (attribute vector, search result) pairs — one per column
    partition — returning per-job RecordID arrays (partition-local).

    Cost accounting happens up front (one charge per call) and equals the
    sum of the per-job uniform charges — identical to scanning the
    concatenated vector, so partitioning a column never changes its
    comparison count.
    """
    prepared = [
        _prepare_scan(attribute_vector, result) for attribute_vector, result in jobs
    ]
    if cost_model is not None:
        cost_model.record_comparison(sum(comparisons for comparisons, _, _ in prepared))
    return [
        _scan(attribute_vector, matchable_ranges, vids)
        for (attribute_vector, _), (_, matchable_ranges, vids) in zip(jobs, prepared)
    ]
