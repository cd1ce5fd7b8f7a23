"""Oblivious memory primitives for the enclave (paper §4.3).

The delta-store merge "has to be implemented in a way that does not leak the
relationship between values in the old and new main store, e.g., with
oblivious memory primitives [ZeroTrace, Opaque]". This module provides the
primitive the merge uses, a shuffle with a **data-independent access
pattern**, built on one bitonic sorting network:

- the network pads the input to a power of two with sentinel slots and runs
  the fixed bitonic schedule one stage per numpy step. A stage views the
  keys as ``(m / (2·stride), 2, stride)`` — every compare-exchange pair of
  the stage at once — makes one lexicographic compare over (sentinel flag,
  key words), and writes both slots of *every* pair back with ``np.where``.
  The pairs touched, and the writes, depend only on the input *length*.
- :func:`oblivious_shuffle` — that network over 16-byte random tags (two
  big-endian ``uint64`` words each), one read of the DRBG's pooled stream
  (:meth:`~repro.crypto.drbg.HmacDrbg.read`, refilled in requests of at
  most ``MAX_REQUEST_BYTES``): a uniformly random permutation whose access
  trace is again input-independent.

An instrumented :class:`TraceRecorder` lets tests assert the
data-independence property directly: it receives every (i, partner)
compare-exchange pair in schedule order.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.crypto.drbg import HmacDrbg

TAG_BYTES = 16


class TraceRecorder:
    """Records the (i, j) compare-exchange sequence for obliviousness tests."""

    def __init__(self) -> None:
        self.accesses: list[tuple[int, int]] = []

    def record(self, i: int, j: int) -> None:
        self.accesses.append((i, j))


def _bitonic_order(
    words: Sequence[np.ndarray], trace: TraceRecorder | None = None
) -> np.ndarray:
    """Positions of the ``n`` inputs in ascending (words...) order.

    ``words`` are equal-length key columns, most significant first. Slots
    are padded to a power of two with sentinels (flag 1) that compare
    greater than every input, so they sink past position ``n``. In every
    pair ``swap = (left > right) == ascending``: equal keys in a descending
    pair swap, so the permutation matches the classic scalar network.
    """
    n = len(words[0])
    if n <= 1:
        return np.arange(n)
    m = 1 << (n - 1).bit_length()
    flag = np.pad(np.zeros(n, dtype=np.uint8), (0, m - n), constant_values=1)
    # Key columns, then the payload: each slot's input position.
    keys = [flag, *(np.pad(column, (0, m - n)) for column in words), np.arange(m)]
    block = 2
    while block <= m:
        stride = block // 2
        while stride > 0:
            groups = m // (2 * stride)
            pairs = [key.reshape(groups, 2, stride) for key in keys]
            if trace is not None:
                slots = np.arange(m).reshape(groups, 2, stride)
                for i in slots[:, 0, :].ravel().tolist():
                    trace.record(i, i + stride)
            # i & block is constant within a group (block >= 2·stride).
            ascending = (((np.arange(groups) * 2 * stride) & block) == 0)[:, None]
            greater = np.zeros((groups, stride), dtype=bool)
            for pair in reversed(pairs[:-1]):  # least significant word first
                left, right = pair[:, 0, :], pair[:, 1, :]
                greater = (left > right) | ((left == right) & greater)
            swap = greater == ascending
            for pair in pairs:
                left, right = pair[:, 0, :], pair[:, 1, :]
                # Both slots of every pair are written, swapped or not.
                left[...], right[...] = (
                    np.where(swap, right, left), np.where(swap, left, right)
                )
            stride //= 2
        block *= 2
    return keys[-1][:n]


def oblivious_shuffle(
    items: Sequence[Any],
    rng: HmacDrbg,
    *,
    trace: TraceRecorder | None = None,
) -> list[Any]:
    """Uniformly random permutation with a data-independent access trace.

    Tags each element with 16 random bytes and bitonically sorts by tag
    (the Melbourne-shuffle-style 'sort by random keys' construction). Tag
    collisions are astronomically unlikely and would only bias the order of
    the colliding pair.
    """
    stream = rng.read(TAG_BYTES * len(items))  # the DRBG's pooled stream
    tags = np.frombuffer(stream, dtype=">u8").reshape(-1, 2).astype(np.uint64)
    order = _bitonic_order([tags[:, 0], tags[:, 1]], trace)
    return [items[i] for i in order.tolist()]
