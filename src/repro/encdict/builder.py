"""``EncDB``: the data-owner-side construction of encrypted dictionaries.

For a column ``C`` and a selected kind EDk, the builder

1. splits ``C`` according to the kind's *repetition option* — each unique
   value once (revealing), per random buckets of at most ``bsmax``
   occurrences (smoothing, Algorithm 5), or once per occurrence (hiding);
2. arranges the dictionary according to the *order option* — sorted
   lexicographically, sorted and rotated by a uniformly random offset, or
   randomly shuffled;
3. assigns ValueIDs in the attribute vector so the split is correct
   (Definition 1) while using every ValueID exactly as often as its bucket
   capacity prescribes;
4. encrypts every dictionary value individually with PAE under the
   per-column key ``SKD`` and a fresh random IV (and, for rotated kinds,
   attaches the PAE-encrypted rotation offset).

With ``encrypted=False`` the same construction yields PlainDBDB's plaintext
dictionaries: identical algorithms and layout, no encryption — the second
baseline of the paper's evaluation (§6.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.columnstore.types import ValueType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import Pae
from repro.encdict.buckets import get_rnd_bucket_sizes
from repro.encdict.dictionary import EncryptedDictionary
from repro.encdict.options import (
    EncryptedDictionaryKind,
    OrderOption,
    RepetitionOption,
)
from repro.exceptions import CatalogError


@dataclass
class BuildStats:
    """Construction facts used by tests, storage reports and the leakage
    analysis. ``rnd_offset`` is the secret rotation offset — it is exposed
    here for white-box testing only and is never shipped to the server in
    plaintext."""

    kind: EncryptedDictionaryKind
    column_length: int
    unique_values: int
    dictionary_entries: int
    bsmax: int | None
    rnd_offset: int | None


@dataclass
class BuildResult:
    """Everything ``EncDB`` produces for one column."""

    dictionary: EncryptedDictionary
    attribute_vector: np.ndarray
    stats: BuildStats


def encdb_build(
    values: Sequence[Any],
    kind: EncryptedDictionaryKind,
    *,
    value_type: ValueType,
    key: bytes | None,
    pae: Pae | None,
    rng: HmacDrbg,
    iv_rng: HmacDrbg | None = None,
    bsmax: int = 10,
    table_name: str = "",
    column_name: str = "",
    encrypted: bool = True,
) -> BuildResult:
    """Split, arrange, and encrypt one column according to ``kind``.

    ``iv_rng`` is a dedicated DRBG for the PAE IVs of this build. Without it
    IVs come from the backend's internal generator (the historical single-
    build behaviour); with it the build touches no shared mutable state, so
    the partitions of a column can be built in any order (a rotation rebuilds
    them one by one) and still produce bit-for-bit the ciphertexts of the
    serial loop.
    """
    if len(values) == 0:
        raise CatalogError("cannot build a dictionary for an empty column")
    if encrypted and (key is None or pae is None):
        raise CatalogError("encrypted build requires a key and a PAE backend")
    for value in values:
        value_type.validate(value)

    entries, vid_assignment = _split(values, kind.repetition, bsmax, rng)
    entries, vid_assignment, rnd_offset = _arrange(
        entries, vid_assignment, kind.order, value_type, rng
    )
    attribute_vector = _build_attribute_vector(values, vid_assignment, rng)

    payloads = [value_type.to_bytes(value) for value in entries]
    if encrypted:
        # One vectorized pass over the dictionary instead of one call per
        # value: same IV stream, amortized key schedule and bookkeeping.
        blobs = pae.encrypt_many(key, payloads, rng=iv_rng)
    else:
        blobs = payloads

    enc_rnd_offset = None
    if rnd_offset is not None:
        offset_bytes = rnd_offset.to_bytes(8, "big")
        enc_rnd_offset = (
            pae.encrypt(key, offset_bytes, rng=iv_rng)
            if encrypted
            else offset_bytes
        )

    dictionary = EncryptedDictionary.from_blobs(
        blobs,
        kind=kind,
        value_type=value_type,
        table_name=table_name,
        column_name=column_name,
        enc_rnd_offset=enc_rnd_offset,
        encrypted=encrypted,
    )
    stats = BuildStats(
        kind=kind,
        column_length=len(values),
        unique_values=len(set(values)),
        dictionary_entries=len(entries),
        bsmax=bsmax if kind.repetition is RepetitionOption.SMOOTHING else None,
        rnd_offset=rnd_offset,
    )
    return BuildResult(dictionary, attribute_vector, stats)


def partition_rng_stream(rng: HmacDrbg) -> Iterator[tuple[HmacDrbg, HmacDrbg]]:
    """The per-partition ``(build_rng, iv_rng)`` DRBG pairs, in partition order.

    The one fork discipline of a partitioned build: child *i* is forked from
    the column's DRBG as ``part-i`` and its IV generator from that child —
    the HMAC-DRBG fork is the derivation step (the same keyed-HMAC
    construction the KDF uses), so each child stream is a pure function of
    (column seed, partition index) and a partition build touches no shared
    randomness. Lazy, so a streamed source whose partition count is not
    known up front draws exactly the pairs the serial loop would.
    """
    for index in itertools.count():
        build_rng = rng.fork(f"part-{index}")
        yield build_rng, build_rng.fork("pae-iv")


def _split(
    values: Sequence[Any],
    repetition: RepetitionOption,
    bsmax: int,
    rng: HmacDrbg,
) -> tuple[list[Any], dict[Any, list[tuple[int, int]]]]:
    """Produce the logical dictionary entries and per-value ValueID budget.

    Returns ``(entries, assignment)`` where ``entries[vid]`` is the
    plaintext of ValueID ``vid`` and ``assignment[v]`` lists
    ``(vid, capacity)`` pairs: how often each of ``v``'s ValueIDs may be
    used in the attribute vector.
    """
    occurrence_counts: dict[Any, int] = {}
    for value in values:
        occurrence_counts[value] = occurrence_counts.get(value, 0) + 1

    entries: list[Any] = []
    assignment: dict[Any, list[tuple[int, int]]] = {}
    for value, count in occurrence_counts.items():
        if repetition is RepetitionOption.REVEALING:
            capacities = [count]
        elif repetition is RepetitionOption.SMOOTHING:
            capacities = get_rnd_bucket_sizes(count, bsmax, rng)
        else:  # HIDING: a separate dictionary entry per occurrence
            capacities = [1] * count
        vid_list = []
        for capacity in capacities:
            vid_list.append((len(entries), capacity))
            entries.append(value)
        assignment[value] = vid_list
    return entries, assignment


def _arrange(
    entries: list[Any],
    assignment: dict[Any, list[tuple[int, int]]],
    order: OrderOption,
    value_type: ValueType,
    rng: HmacDrbg,
) -> tuple[list[Any], dict[Any, list[tuple[int, int]]], int | None]:
    """Reorder the dictionary per the order option and remap ValueIDs."""
    n = len(entries)
    order_of_old: list[int]
    rnd_offset: int | None = None

    if order is OrderOption.SORTED or order is OrderOption.ROTATED:
        sorted_old = sorted(range(n), key=lambda i: value_type.ordinal(entries[i]))
        if order is OrderOption.ROTATED:
            rnd_offset = rng.read_randint(0, n - 1)
            # D[i] = D'[(i - rndOffset) mod n]  <=>  new position of sorted
            # index j is (j + rndOffset) mod n.
            positions = [0] * n
            for new_index in range(n):
                positions[new_index] = sorted_old[(new_index - rnd_offset) % n]
            sorted_old = positions
        order_of_old = sorted_old
    else:  # UNSORTED: random shuffle
        order_of_old = list(range(n))
        rng.shuffle(order_of_old)

    new_entries = [entries[old] for old in order_of_old]
    new_vid_of_old = {old: new for new, old in enumerate(order_of_old)}
    new_assignment = {
        value: [(new_vid_of_old[vid], capacity) for vid, capacity in vid_list]
        for value, vid_list in assignment.items()
    }
    return new_entries, new_assignment, rnd_offset


def _build_attribute_vector(
    values: Sequence[Any],
    assignment: dict[Any, list[tuple[int, int]]],
    rng: HmacDrbg,
) -> np.ndarray:
    """Assign each occurrence a ValueID, honouring every bucket capacity.

    For each value the multiset of its ValueIDs (each repeated by its
    capacity) is shuffled and consumed occurrence by occurrence, so the
    choice is random but each ValueID is used exactly as often as its bucket
    size prescribes (paper §4.1, frequency smoothing).
    """
    pools: dict[Any, list[int]] = {}
    for value, vid_list in assignment.items():
        if len(vid_list) == 1:
            continue  # fast path: a single ValueID needs no pool
        pool = [vid for vid, capacity in vid_list for _ in range(capacity)]
        rng.shuffle(pool)
        pools[value] = pool

    attribute_vector = np.empty(len(values), dtype=np.int64)
    for record_id, value in enumerate(values):
        pool = pools.get(value)
        if pool is None:
            attribute_vector[record_id] = assignment[value][0][0]
        else:
            attribute_vector[record_id] = pool.pop()
    return attribute_vector
