"""Stored columns: partitioned main store + write-optimized delta store.

Each column of a table is split into a read-optimized *main store* (any
dictionary kind) and an append-only *delta store*. The main store is a
sequence of fixed-row-count **partitions** (``columnstore/partition.py``),
each with its own dictionary + attribute vector: partition-granular layout
bounds the enclave working set per search and lets the merge rebuild only
partitions whose rows actually changed. For encrypted columns the delta
store is always ED9 — one probabilistically encrypted dictionary entry per
inserted value, searched with the linear ``EnclDictSearch 9`` — so neither
order nor frequency leaks on insertion. RecordIDs are global: main rows
first (partitions in order), delta rows after; deletions flip a validity
bit at table level and rows are physically dropped at the periodic merge.

Partitioning never changes query results: per-partition search results keep
the same fixed padded shape as a single-column search (§4.1), and the union
of per-partition RecordID sets equals the unpartitioned answer.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.columnstore.dictionary import DictionaryEncodedColumn
from repro.columnstore.partition import (
    DEFAULT_PARTITION_ROWS,
    DELTA_PARTITION_ID,
    partition_lengths,
    partition_starts,
    slice_rows,
)
from repro.columnstore.types import ColumnSpec
from repro.encdict.attrvect import attr_vect_search, attr_vect_search_many
from repro.encdict.builder import BuildResult
from repro.encdict.dictionary import EncryptedDictionary
from repro.encdict.options import ED9
from repro.encdict.search import SearchResult
from repro.exceptions import CatalogError, QueryError


class PlainStoredColumn:
    """An unprotected column: plaintext dictionary partitions + delta list."""

    def __init__(
        self,
        spec: ColumnSpec,
        values: Sequence[Any] = (),
        *,
        partition_rows: int | None = None,
    ) -> None:
        if spec.is_encrypted:
            raise CatalogError(f"column {spec.name} is declared encrypted")
        self.spec = spec
        for value in values:
            spec.value_type.validate(value)
        self.partition_rows = partition_rows
        self.partitions: list[DictionaryEncodedColumn] = []
        if len(values):
            self.set_partition_values(
                slice_rows(
                    list(values),
                    partition_lengths(
                        len(values), partition_rows or DEFAULT_PARTITION_ROWS
                    ),
                )
            )
        self.delta_values: list[Any] = []

    # -- partition layout ------------------------------------------------
    @property
    def partition_lengths(self) -> list[int]:
        return [len(part) for part in self.partitions]

    @property
    def partition_starts(self) -> list[int]:
        return partition_starts(self.partition_lengths)

    def set_partition_values(self, parts: Sequence[Sequence[Any]]) -> None:
        """Install the main store as explicit per-partition value lists."""
        self.partitions = [
            DictionaryEncodedColumn.from_values(list(part)) for part in parts
        ]

    def append_partition_values(self, values: Sequence[Any]) -> None:
        """Append one more main-store partition (streamed bulk load)."""
        self.partitions.append(DictionaryEncodedColumn.from_values(list(values)))

    def __len__(self) -> int:
        return self.main_length + len(self.delta_values)

    @property
    def main_length(self) -> int:
        return sum(len(part) for part in self.partitions)

    def append(self, value: Any) -> int:
        """Insert into the delta store; returns the new global RecordID."""
        self.spec.value_type.validate(value)
        self.delta_values.append(value)
        return len(self) - 1

    def search_range(self, low: Any, high: Any) -> np.ndarray:
        """Global RecordIDs with ``low <= value <= high`` (both stores)."""
        return self.search_filter(low, True, high, True)

    def search_filter(
        self,
        low: Any | None,
        low_inclusive: bool,
        high: Any | None,
        high_inclusive: bool,
    ) -> np.ndarray:
        """Range search with optional open ends and exclusive bounds."""

        def matches(value: Any) -> bool:
            if low is not None:
                if low_inclusive and value < low:
                    return False
                if not low_inclusive and value <= low:
                    return False
            if high is not None:
                if high_inclusive and value > high:
                    return False
                if not high_inclusive and value >= high:
                    return False
            return True

        parts = []
        for part, start in zip(self.partitions, self.partition_starts):
            dictionary = part.dictionary
            if low is None:
                vid_min = 0
            elif low_inclusive:
                vid_min = bisect.bisect_left(dictionary, low)
            else:
                vid_min = bisect.bisect_right(dictionary, low)
            if high is None:
                vid_max = len(dictionary) - 1
            elif high_inclusive:
                vid_max = bisect.bisect_right(dictionary, high) - 1
            else:
                vid_max = bisect.bisect_left(dictionary, high) - 1
            parts.append(part.attribute_vector_search(vid_min, vid_max) + start)
        delta_rids = [
            self.main_length + i
            for i, value in enumerate(self.delta_values)
            if matches(value)
        ]
        parts.append(np.asarray(delta_rids, dtype=np.int64))
        return np.concatenate(parts)

    def value_at(self, record_id: int) -> Any:
        if record_id >= self.main_length:
            return self.delta_values[record_id - self.main_length]
        for part, start in zip(self.partitions, self.partition_starts):
            if record_id < start + len(part):
                return part.value_at(record_id - start)
        raise IndexError(f"RecordID {record_id} out of range")

    def values_at(self, record_ids: np.ndarray) -> list[Any]:
        """:meth:`value_at` of ascending global RecordIDs, one store at a
        time: a single pass over the layout instead of one per row."""
        values: list[Any] = []
        start = 0
        for part in self.partitions:
            end = start + len(part)
            local = record_ids[(record_ids >= start) & (record_ids < end)] - start
            dictionary = part.dictionary
            values.extend(dictionary[vid] for vid in part.attribute_vector[local].tolist())
            start = end
        delta = (record_ids[record_ids >= start] - start).tolist()
        values.extend(self.delta_values[position] for position in delta)
        return values

    def search_prefix(self, prefix: str) -> np.ndarray:
        """Global RecordIDs whose value starts with ``prefix``.

        Prefix matches are contiguous in each partition's sorted dictionary,
        so every partition scan starts at ``bisect_left(prefix)`` and stops
        at the first non-matching entry.
        """
        parts = []
        for part, part_start in zip(self.partitions, self.partition_starts):
            dictionary = part.dictionary
            start = bisect.bisect_left(dictionary, prefix)
            end = start
            while end < len(dictionary) and str(dictionary[end]).startswith(prefix):
                end += 1
            parts.append(part.attribute_vector_search(start, end - 1) + part_start)
        delta_rids = [
            self.main_length + i
            for i, value in enumerate(self.delta_values)
            if str(value).startswith(prefix)
        ]
        parts.append(np.asarray(delta_rids, dtype=np.int64))
        return np.concatenate(parts)

    def join_keys(self) -> list[Any]:
        """Per-row join keys: for a plaintext column, the values themselves."""
        keys: list[Any] = []
        for part in self.partitions:
            keys.extend(part.values())
        keys.extend(self.delta_values)
        return keys


@dataclass
class ShadowPartitions:
    """Dual-version partition slots of one in-flight online rotation.

    While a column rotates (``repro.migrate``), every main partition owns a
    second slot holding the shadow build produced by the ``rotate_partition``
    ecall. A *swap* promotes the shadow build into the serving slot — a
    single list-item store, atomic under the interpreter — and keeps the
    original so the step can be rolled back. Key rotations additionally save
    the pre-flip delta store and epoch so the one-shot finalize flip is
    reversible too.
    """

    kind_name: str
    key_epoch: int
    builds: list[BuildResult | None]
    originals: list[BuildResult | None]
    swapped: list[bool]
    flipped: bool = False
    old_delta: list[bytes] = field(default_factory=list)
    old_key_epoch: int = 0


class EncryptedStoredColumn:
    """An encrypted column: encrypted-dictionary partitions + ED9 delta.

    The server holds only ciphertext; searches go through the enclave host
    and value reconstruction returns PAE blobs for the proxy to decrypt.
    Partition ids are server-side bookkeeping, allocated when builds are
    installed (never shipped by the data owner), and stay stable across
    merges so the enclave's per-partition cache epochs survive rebuilds of
    *other* partitions.
    """

    def __init__(
        self,
        spec: ColumnSpec,
        build: BuildResult | Sequence[BuildResult] | None,
    ) -> None:
        if not spec.is_encrypted:
            raise CatalogError(f"column {spec.name} is not declared encrypted")
        self.spec = spec
        self.partition_builds: list[BuildResult] = []
        self.partition_ids: list[int] = []
        self._next_partition_id = 0
        self._table_name = ""
        if build is not None:
            builds = list(build) if isinstance(build, (list, tuple)) else [build]
            self.set_partitions(builds)
            if builds:
                self._table_name = builds[0].dictionary.table_name
        self.delta_blobs: list[bytes] = []
        # Online rotation state (repro.migrate). The serving structures
        # (partition_builds item stores, the epoch flip) are mutated only
        # under the shadow lock so a migration step is atomic with respect
        # to other steps; readers never take the lock — they work off
        # per-query snapshots instead (search_requests embeds the build it
        # searched in each request label).
        self._shadow_lock = threading.RLock()
        self._shadow: ShadowPartitions | None = None  # guarded-by: self._shadow_lock
        self.key_epoch: int = 0  # guarded-by: self._shadow_lock

    # -- partition layout ------------------------------------------------
    @property
    def partition_lengths(self) -> list[int]:
        return [len(build.attribute_vector) for build in self.partition_builds]

    @property
    def partition_starts(self) -> list[int]:
        return partition_starts(self.partition_lengths)

    def allocate_partition_id(self) -> int:
        """A fresh, never-reused partition id for this column."""
        allocated = self._next_partition_id
        self._next_partition_id += 1
        return allocated

    def set_partitions(
        self, builds: Sequence[BuildResult], ids: Sequence[int] | None = None
    ) -> None:
        """Install the main store as an explicit partition sequence.

        ``ids`` keeps existing partition ids across a merge; without it
        fresh ids are allocated. Each build's dictionary is stamped with its
        partition id so the enclave keys cache epochs per partition.
        """
        builds = list(builds)
        if ids is None:
            ids = [self.allocate_partition_id() for _ in builds]
        else:
            ids = [int(partition_id) for partition_id in ids]
            if len(ids) != len(builds):
                raise CatalogError("partition ids do not match builds")
            if ids:
                self._next_partition_id = max(
                    self._next_partition_id, max(ids) + 1
                )
        for build, partition_id in zip(builds, ids):
            build.dictionary.partition_id = partition_id
        self.partition_builds = builds
        self.partition_ids = list(ids)

    def append_partition(self, build: BuildResult) -> int:
        """Append one more main-store partition (streamed bulk load).

        Returns the freshly allocated partition id; the build's dictionary
        is stamped with it just as :meth:`set_partitions` would.
        """
        partition_id = self.allocate_partition_id()
        build.dictionary.partition_id = partition_id
        self.partition_builds.append(build)
        self.partition_ids.append(partition_id)
        return partition_id

    @property
    def main_build(self) -> BuildResult | None:
        """Single-partition view (storage round-trip tests read it)."""
        if not self.partition_builds:
            return None
        if len(self.partition_builds) == 1:
            return self.partition_builds[0]
        raise CatalogError(
            f"column {self.spec.name} has {len(self.partition_builds)} "
            "partitions; use .partition_builds"
        )

    def __len__(self) -> int:
        return self.main_length + len(self.delta_blobs)

    @property
    def main_length(self) -> int:
        return sum(len(build.attribute_vector) for build in self.partition_builds)

    def bind(self, table_name: str) -> None:
        self._table_name = table_name

    def extend_delta(self, stored_blobs: Sequence[bytes]) -> None:
        """Append enclave-resealed blobs to the ED9 delta store (paper §4.3).

        The caller reads ``key_epoch``, has the enclave seal the blobs under
        it and calls this inside one :meth:`rotation_lock` section, so the
        delta stays epoch-uniform with main and no insert straddles a
        key-rotation flip (which re-seals the delta under the same lock).
        """
        with self._shadow_lock:
            self.delta_blobs.extend(stored_blobs)

    def _delta_dictionary(
        self, delta_blobs: list[bytes], key_epoch: int
    ) -> EncryptedDictionary:
        """A delta-store snapshot viewed as an ED9 encrypted dictionary.

        ``delta_blobs`` and ``key_epoch`` must come from one
        :meth:`render_view`: a flip replaces both atomically, and a
        dictionary pairing old blobs with the new epoch (or vice versa)
        would fail authentication in the enclave.
        """
        return EncryptedDictionary.from_blobs(
            delta_blobs,
            kind=ED9,
            value_type=self.spec.value_type,
            table_name=self._table_name,
            column_name=self.spec.name,
            partition_id=DELTA_PARTITION_ID,
            key_epoch=key_epoch,
        )

    def search_requests(
        self, tau: tuple[bytes, bytes]
    ) -> list[tuple[Any, EncryptedDictionary, tuple[bytes, bytes]]]:
        """The labeled ``(store, dictionary, τ)`` searches this column needs.

        One entry per non-empty main partition — labeled ``("main", i,
        build)`` — plus one for the delta store (``("delta",)``). The
        executor collects these across all filters of a query plan so the
        whole plan can go through a single ``dict_search_batch`` ecall; the
        labels route each :class:`SearchResult` back through
        :meth:`record_ids_from_results`. Every per-partition search result
        is padded to the same fixed shape as a single-partition search, so
        the fan-out reveals the partition count (a public layout property)
        but nothing beyond §4.1 leakage.

        The build travels inside the label so the attribute-vector scan later
        applies the *same* version of the partition that was searched: during
        an online rotation a swap may promote the shadow build between the
        dictionary search and the scan, and mixing the old dictionary's
        ValueIDs with the new attribute vector would corrupt results.
        """
        builds, delta_blobs, key_epoch = self.render_view()
        requests: list[tuple[Any, EncryptedDictionary, tuple[bytes, bytes]]] = []
        for index, build in enumerate(builds):
            if len(build.attribute_vector):
                requests.append((("main", index, build), build.dictionary, tau))
        if delta_blobs:
            requests.append(
                (("delta",), self._delta_dictionary(delta_blobs, key_epoch), tau)
            )
        return requests

    def ordinal_segments(
        self, record_ids: np.ndarray
    ) -> list[tuple[EncryptedDictionary, np.ndarray]]:
        """Per-store ``(dictionary, ValueIDs)`` of the given rows.

        The ordinal-domain view the aggregation pushdown feeds to the
        ``aggregate_groups`` ecall and the merge to ``rebuild_for_merge``:
        for each store holding at least one of the (sorted, global)
        ``record_ids`` — main partitions in order, then the delta — the
        dictionary reference plus the rows' ValueIDs in RecordID order.
        Delta "ValueIDs" are the row positions themselves (the ED9 delta
        dictionary has one entry per row). All columns of a table share one
        partition layout, so calling this on several columns with the same
        ``record_ids`` yields row-aligned segment lists.
        """
        return self.ordinal_segment_lists([record_ids])[0]

    def ordinal_segment_lists(
        self, row_sets: Sequence[np.ndarray]
    ) -> list[list[tuple[EncryptedDictionary, np.ndarray]]]:
        """:meth:`ordinal_segments` of each row set, all from one
        :meth:`render_view` snapshot with the delta dictionary built once
        (a merge rebuilding several partitions of a column)."""
        builds, delta_blobs, key_epoch = self.render_view()
        delta = None
        lists = []
        for record_ids in row_sets:
            record_ids = np.asarray(record_ids, dtype=np.int64)
            segments: list[tuple[EncryptedDictionary, np.ndarray]] = []
            start = 0
            for build in builds:
                length = len(build.attribute_vector)
                in_store = record_ids[
                    (record_ids >= start) & (record_ids < start + length)
                ]
                if len(in_store):
                    segments.append(
                        (build.dictionary, build.attribute_vector[in_store - start])
                    )
                start += length
            in_delta = record_ids[record_ids >= start]
            if delta_blobs and len(in_delta):
                if delta is None:
                    delta = self._delta_dictionary(delta_blobs, key_epoch)
                segments.append((delta, in_delta - start))
            lists.append(segments)
        return lists

    def record_ids_from_results(
        self,
        labeled_results: Sequence[tuple[Any, SearchResult]],
        *,
        cost_model=None,
        scan_cache: dict | None = None,
    ) -> np.ndarray:
        """Turn the enclave's per-store :class:`SearchResult`\\ s into global
        RecordIDs (the untrusted ``AttrVectSearch`` half of a query).

        Main partitions are scanned one after another in the calling
        thread; partition-local RecordIDs are offset by the partition
        start so the union is the global answer. ``scan_cache`` (per-query,
        executor-owned) memoizes each partition scan by ``(column,
        partition, result shape)`` so identical filters on one column
        within a query scan each attribute vector once.
        """
        parts: list[np.ndarray | None] = []
        starts = self.partition_starts
        pending: list[tuple[int, BuildResult, int, SearchResult, tuple | None]] = []
        for label, result in labeled_results:
            if label[0] == "main":
                # Scan the partition version the label carries: the one whose
                # dictionary produced this result.
                _, index, build = label
                if not 0 <= index < len(self.partition_builds):
                    raise QueryError(f"unknown main partition {index}")
                signature = None
                if scan_cache is not None:
                    signature = (
                        id(self),
                        "main",
                        index,
                        id(build.dictionary),
                        result.ranges,
                        result.vids,
                    )
                    cached = scan_cache.get(signature)
                    if cached is not None:
                        parts.append(cached)
                        continue
                parts.append(None)
                pending.append((len(parts) - 1, build, index, result, signature))
            elif label[0] == "delta":
                # The ED9 delta attribute vector is the identity: entry i of
                # the delta dictionary belongs to delta row i.
                delta_rids = np.asarray(result.vids, dtype=np.int64)
                parts.append(delta_rids + self.main_length)
            else:
                raise QueryError(f"unknown search-store label {label!r}")

        if pending:
            jobs = [
                (build.attribute_vector, result)
                for _, build, _, result, _ in pending
            ]
            if len(jobs) == 1:
                rids_list = [attr_vect_search(*jobs[0], cost_model=cost_model)]
            else:
                # One up-front cost charge, then a per-partition loop.
                rids_list = attr_vect_search_many(jobs, cost_model=cost_model)
            for (slot, _, index, _, signature), rids in zip(pending, rids_list):
                global_rids = rids + starts[index]
                if signature is not None:
                    scan_cache[signature] = global_rids
                parts[slot] = global_rids

        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def render_view(self) -> tuple[list[BuildResult], list[bytes], int]:
        """``(builds, delta_blobs, key_epoch)`` captured in one critical
        section, for result rendering.

        A key-rotation flip replaces partitions, delta and epoch together
        under the shadow lock; taking the same lock here means a rendered
        result is entirely pre-flip or entirely post-flip, and the returned
        epoch is exactly the one every returned blob is sealed under — it is
        stamped on the wire :class:`~repro.sql.result.ResultColumn` so the
        proxy derives the matching decryption key.
        """
        with self._shadow_lock:
            return list(self.partition_builds), list(self.delta_blobs), self.key_epoch

    def render_entries(
        self, record_ids: np.ndarray
    ) -> tuple[list[bytes], np.ndarray, int]:
        """Tuple reconstruction, column at a time: ``(entries, index,
        key_epoch)`` for the given global RecordIDs (paper §4.2 step 12).

        ``entries`` holds each referenced dictionary entry once and
        ``index`` (int32, one per row) points every row at its entry, so
        row ``i``'s blob is ``entries[index[i]]``. The dedup key is
        *(partition, ValueID)* — never the plaintext, and blobs of different
        entries are never compared — so a frequency-smoothing kind still
        ships its duplicate entries as distinct blobs, and a frequency-hiding
        kind (one entry per row) ships one entry per row. Delta rows are
        their own ValueIDs (the ED9 delta dictionary has one entry per row).
        Entries come in partition order, then ValueID order; the delta
        follows the main partitions.

        Everything is read from one :meth:`render_view`, so a render never
        mixes partition versions (and thus key epochs) while an online
        rotation swaps partitions underneath it.
        """
        builds, delta_blobs, key_epoch = self.render_view()
        record_ids = np.asarray(record_ids, dtype=np.int64)
        lengths = [len(build.attribute_vector) for build in builds]
        ends = np.cumsum(lengths, dtype=np.int64)
        main_length = int(ends[-1]) if len(ends) else 0
        if len(record_ids) and (
            int(record_ids.min()) < 0
            or int(record_ids.max()) >= main_length + len(delta_blobs)
        ):
            raise QueryError("RecordID out of range")
        # Store of every row: main partition p, or len(builds) for the delta.
        stores = np.searchsorted(ends, record_ids, side="right")
        entries: list[bytes] = []
        index = np.empty(len(record_ids), dtype=np.int32)
        for store in np.unique(stores).tolist():
            rows = np.flatnonzero(stores == store)
            if store < len(builds):
                build = builds[store]
                local = record_ids[rows] - (int(ends[store]) - lengths[store])
                vids, inverse = np.unique(
                    build.attribute_vector[local], return_inverse=True
                )
                blobs = [build.dictionary.entry(vid) for vid in vids.tolist()]
            else:
                positions, inverse = np.unique(
                    record_ids[rows] - main_length, return_inverse=True
                )
                blobs = [delta_blobs[position] for position in positions.tolist()]
            index[rows] = inverse.reshape(-1) + len(entries)
            entries.extend(blobs)
        return entries, index, key_epoch

    # -- online rotation (repro.migrate) ---------------------------------
    @property
    def shadow(self) -> ShadowPartitions | None:
        return self._shadow

    def rotation_lock(self) -> threading.RLock:
        """The shadow lock, for callers that must compose several rotation
        operations into one critical section (e.g. the DBMS's flip step:
        read delta → ``reseal_delta`` ecall → :meth:`flip_shadow`)."""
        return self._shadow_lock

    def begin_shadow(self, kind_name: str, key_epoch: int) -> int:
        """Open dual-version slots for an online rotation; returns the
        number of main partitions the backfill must rebuild."""
        with self._shadow_lock:
            if self._shadow is not None:
                raise CatalogError(
                    f"column {self.spec.name} already has a rotation in flight"
                )
            count = len(self.partition_builds)
            self._shadow = ShadowPartitions(
                kind_name=kind_name,
                key_epoch=key_epoch,
                builds=[None] * count,
                originals=[None] * count,
                swapped=[False] * count,
            )
            return count

    def _require_shadow(self) -> ShadowPartitions:
        if self._shadow is None:
            raise CatalogError(
                f"column {self.spec.name} has no rotation in flight"
            )
        return self._shadow

    def install_shadow(self, index: int, build: BuildResult) -> None:
        """Park one partition's rebuilt (shadow) version without serving it."""
        with self._shadow_lock:
            shadow = self._require_shadow()
            current = self.partition_builds[index]
            if len(build.attribute_vector) != len(current.attribute_vector):
                raise CatalogError(
                    f"shadow partition {index} has "
                    f"{len(build.attribute_vector)} rows, expected "
                    f"{len(current.attribute_vector)}"
                )
            shadow.builds[index] = build

    def uninstall_shadow(self, index: int) -> None:
        """Drop one partition's parked shadow build (rotate-step rollback)."""
        with self._shadow_lock:
            shadow = self._require_shadow()
            if shadow.swapped[index]:
                raise CatalogError(
                    f"partition {index} is serving its shadow build; unswap first"
                )
            shadow.builds[index] = None

    def swap_shadow(self, index: int) -> None:
        """Atomically promote one shadow build into the serving slot."""
        with self._shadow_lock:
            shadow = self._require_shadow()
            if shadow.builds[index] is None:
                raise CatalogError(f"partition {index} has no shadow build")
            if shadow.swapped[index]:
                return
            shadow.originals[index] = self.partition_builds[index]
            self.partition_builds[index] = shadow.builds[index]
            shadow.swapped[index] = True

    def unswap_shadow(self, index: int) -> None:
        """Roll one partition back to the version it served before the swap."""
        with self._shadow_lock:
            shadow = self._require_shadow()
            if not shadow.swapped[index]:
                return
            self.partition_builds[index] = shadow.originals[index]
            shadow.originals[index] = None
            shadow.swapped[index] = False

    def flip_shadow(self, new_delta_blobs: list[bytes] | None = None) -> None:
        """Key-rotation finalize: swap every remaining partition, re-seal
        the delta store, and advance the storage epoch in one critical
        section, so no reader can observe a mixed-epoch column.

        The caller (the DBMS) runs this under its session lock with the
        re-sealed delta from the ``reseal_delta`` ecall, making the flip
        atomic against queries and inserts as well.
        """
        with self._shadow_lock:
            shadow = self._require_shadow()
            for index in range(len(shadow.builds)):
                self.swap_shadow(index)
            if new_delta_blobs is not None:
                if len(new_delta_blobs) != len(self.delta_blobs):
                    raise CatalogError(
                        "re-sealed delta store does not match the live delta"
                    )
                shadow.old_delta = self.delta_blobs
                self.delta_blobs = new_delta_blobs
            shadow.old_key_epoch = self.key_epoch
            self.key_epoch = shadow.key_epoch
            shadow.flipped = True

    def unflip_shadow(self, delta_blobs: list[bytes] | None = None) -> None:
        """Undo :meth:`flip_shadow`: restore every original partition and
        the previous storage epoch.

        ``delta_blobs`` replaces the delta store; the DBMS passes the
        pre-flip delta plus any post-flip inserts re-sealed back to the old
        epoch (``reseal_delta``), again under its session lock.
        """
        with self._shadow_lock:
            shadow = self._require_shadow()
            if not shadow.flipped:
                return
            for index in range(len(shadow.builds)):
                self.unswap_shadow(index)
            if delta_blobs is not None:
                self.delta_blobs = delta_blobs
            self.key_epoch = shadow.old_key_epoch
            shadow.flipped = False

    def clear_shadow(self) -> None:
        """Drop the rotation state, keeping whatever versions now serve."""
        with self._shadow_lock:
            self._shadow = None

    def set_key_epoch(self, key_epoch: int) -> None:
        """Adopt a storage epoch outside a flip (kind-only rotations keep
        the epoch; restores after a crash re-pin it from sealed metadata)."""
        with self._shadow_lock:
            self.key_epoch = int(key_epoch)

    def partition_versions(self) -> list[str]:
        """Which version each main partition currently serves: ``old`` /
        ``shadow-ready`` (rebuilt, not yet promoted) / ``new``."""
        with self._shadow_lock:
            if self._shadow is None:
                return ["current"] * len(self.partition_builds)
            versions = []
            for index in range(len(self._shadow.builds)):
                if self._shadow.swapped[index]:
                    versions.append("new")
                elif self._shadow.builds[index] is not None:
                    versions.append("shadow-ready")
                else:
                    versions.append("old")
            return versions

    def storage_bytes(self) -> int:
        """Table 6 accounting: head + tail + packed AV (+ delta blobs)."""
        total = sum(len(blob) for blob in self.delta_blobs)
        total += 8 * len(self.delta_blobs)  # delta head offsets
        for build in self.partition_builds:
            dictionary = build.dictionary
            total += dictionary.storage_bytes()
            total += dictionary.attribute_vector_bytes(
                len(build.attribute_vector)
            )
        return total
