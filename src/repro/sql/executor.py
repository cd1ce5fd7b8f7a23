"""The query evaluation engine that runs at the (untrusted) DBaaS provider.

Evaluates plans against the column store: every range filter becomes a
dictionary search — through the enclave for encrypted columns, locally for
plaintext ones — followed by the untrusted attribute-vector search; AND/OR
nodes intersect/unite the RecordID sets; validity bits drop deleted rows;
and the result renderer reconstructs the requested columns (paper §4.2
steps 6-13).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import EncryptedStoredColumn, PlainStoredColumn
from repro.columnstore.dictionary import DictionaryEncodedColumn
from repro.columnstore.partition import DEFAULT_PARTITION_ROWS, PartitionMap
from repro.columnstore.table import Table
from repro.exceptions import QueryError
from repro.sgx.enclave import EnclaveHost
from repro.sql.planner import (
    AggregatePushdown,
    DeletePlan,
    EncryptedRangeFilter,
    FilterNode,
    FilterPlan,
    JoinSelectPlan,
    MergePlan,
    OrderPushdown,
    PrefixFilter,
    RangeFilter,
    SelectPlan,
    pushdown_request,
)
from repro.sql.result import (
    AggregateFrames,
    PushdownSelectResult,
    ResultColumn,
    RoutingDecision,
    ServerResult,
)


@dataclass
class MergeStats:
    """What one incremental merge actually did (layout-level counters).

    ``partitions_rebuilt`` counts enclave rebuilds per partition slot, not
    per column — every column of the table rebuilds the same slots, since
    all columns share one partition layout.
    """

    table: str = ""
    partitions_total: int = 0
    partitions_kept: int = 0
    partitions_rebuilt: int = 0
    partitions_dropped: int = 0
    tail_partitions_added: int = 0
    delta_rows_merged: int = 0
    rows_after: int = 0


def _replace_decision(
    decisions: tuple, clause: str, pushed: bool, reason: str
) -> tuple:
    return tuple(
        RoutingDecision(clause, pushed, reason)
        if decision.clause == clause
        else decision
        for decision in decisions
    )


def _padded_frames(real_frames: int) -> int:
    """Mirror of the enclave's power-of-two frame-count padding (cost gate
    and EXPLAIN only — the enclave pads for real)."""
    return 1 << (max(1, real_frames) - 1).bit_length()


def _assemble_segments(
    segment_lists: dict[str, list], row_count: int
) -> list[dict]:
    """Zip per-column ordinal segments into ``aggregate_groups`` arguments.

    All columns of a table share one partition layout, so the per-column
    segment lists from :meth:`EncryptedStoredColumn.ordinal_segments` over
    the same RecordIDs are row-aligned; a mismatch means a concurrent
    layout change and aborts the query rather than misgrouping.
    """
    if not segment_lists:
        return [{"group": None, "rows": row_count, "measures": {}}]
    lengths = {len(segments) for segments in segment_lists.values()}
    if len(lengths) != 1:
        raise QueryError("ordinal segments are misaligned across columns")
    (count,) = lengths
    assembled = []
    for index in range(count):
        group_ref = (
            segment_lists["__group__"][index]
            if "__group__" in segment_lists
            else None
        )
        measures = {
            name: segments[index]
            for name, segments in segment_lists.items()
            if name != "__group__"
        }
        if group_ref is not None:
            rows = len(group_ref[1])
        else:
            rows = len(next(iter(measures.values()))[1])
        for name, (_dictionary, vids) in measures.items():
            if len(vids) != rows:
                raise QueryError(
                    f"ordinal segments of {name!r} are misaligned"
                )
        assembled.append(
            {"group": group_ref, "rows": rows, "measures": measures}
        )
    return assembled


class Executor:
    """Evaluates (already proxy-encrypted) plans on the column store."""

    def __init__(self, catalog: Catalog, enclave_host: EnclaveHost | None) -> None:
        self._catalog = catalog
        self._host = enclave_host
        #: Layout-level counters of the most recent :meth:`merge`.
        self.last_merge_stats: MergeStats | None = None

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def filter_record_ids(self, table: Table, plan: FilterPlan | None) -> np.ndarray:
        """Evaluate a filter tree to the set of matching, valid RecordIDs."""
        if plan is None:
            return table.all_valid_rids()
        # Per-query state: enclave results keyed by filter leaf.
        prepared = self._prepare_encrypted_searches(table, plan)
        return table.filter_valid(self._evaluate(table, plan, prepared))

    def _collect_encrypted_leaves(
        self, plan: FilterPlan, leaves: list[EncryptedRangeFilter]
    ) -> None:
        if isinstance(plan, FilterNode):
            for child in plan.children:
                self._collect_encrypted_leaves(child, leaves)
        elif isinstance(plan, EncryptedRangeFilter):
            leaves.append(plan)

    def _prepare_encrypted_searches(
        self, table: Table, plan: FilterPlan
    ) -> dict[int, list]:
        """Run every encrypted dictionary search of a plan in ONE ecall.

        Collects the ``(dictionary, τ)`` requests of all encrypted filter
        leaves (main and delta stores) and crosses the enclave boundary at
        most once: no request (no encrypted leaf, or only empty stores) is
        no ecall, otherwise one ``dict_search``. Returns a map from leaf
        identity to its labeled :class:`SearchResult`\\ s.
        """
        leaves: list[EncryptedRangeFilter] = []
        self._collect_encrypted_leaves(plan, leaves)
        requests = []  # flat [(dictionary, tau), ...] for the ecall
        slots = []  # parallel [(leaf_id, store_label), ...]
        for leaf in leaves:
            column = table.column(leaf.column)
            if not isinstance(column, EncryptedStoredColumn):
                raise QueryError(
                    f"encrypted filter for plaintext column {leaf.column!r}"
                )
            if self._host is None:
                raise QueryError("no enclave available for encrypted columns")
            for label, dictionary, tau in column.search_requests(leaf.tau):
                requests.append((dictionary, tau))
                slots.append((id(leaf), label))
        results = self._host.ecall("dict_search", requests) if requests else []
        prepared: dict[int, list] = {id(leaf): [] for leaf in leaves}
        for (leaf_id, label), result in zip(slots, results):
            prepared[leaf_id].append((label, result))
        return prepared

    def _evaluate(
        self, table: Table, plan: FilterPlan, prepared: dict[int, list]
    ) -> np.ndarray:
        if isinstance(plan, FilterNode):
            child_sets = [
                self._evaluate(table, child, prepared) for child in plan.children
            ]
            if plan.operator == "NOT":
                if len(child_sets) != 1:
                    raise QueryError("NOT takes exactly one operand")
                return self._complement(table, child_sets[0])
            if plan.operator == "AND":
                combined = child_sets[0]
                for rids in child_sets[1:]:
                    combined = np.intersect1d(combined, rids, assume_unique=True)
                return combined
            if plan.operator == "OR":
                return np.union1d(
                    child_sets[0],
                    child_sets[1]
                    if len(child_sets) == 2
                    else np.concatenate(child_sets[1:]),
                )
            raise QueryError(f"unknown filter operator {plan.operator!r}")
        if isinstance(plan, RangeFilter):
            return self._evaluate_plain(table, plan)
        if isinstance(plan, PrefixFilter):
            return self._evaluate_prefix(table, plan)
        if isinstance(plan, EncryptedRangeFilter):
            return self._evaluate_encrypted(table, plan, prepared)
        raise QueryError(f"unknown filter node {type(plan).__name__}")

    def _evaluate_plain(self, table: Table, plan: RangeFilter) -> np.ndarray:
        column = table.column(plan.column)
        if not isinstance(column, PlainStoredColumn):
            raise QueryError(
                f"plaintext filter reached encrypted column {plan.column!r}; "
                "the proxy must encrypt it first"
            )
        matches = column.search_filter(
            plan.low, plan.low_inclusive, plan.high, plan.high_inclusive
        )
        if plan.negated:
            return self._complement(table, matches)
        return matches

    def _evaluate_prefix(self, table: Table, plan: PrefixFilter) -> np.ndarray:
        column = table.column(plan.column)
        if not isinstance(column, PlainStoredColumn):
            raise QueryError(
                f"plaintext prefix filter reached encrypted column "
                f"{plan.column!r}; the proxy must encrypt it first"
            )
        matches = column.search_prefix(plan.prefix)
        if plan.negated:
            return self._complement(table, matches)
        return matches

    def _evaluate_encrypted(
        self, table: Table, plan: EncryptedRangeFilter, prepared: dict[int, list]
    ) -> np.ndarray:
        matches = table.column(plan.column).record_ids_from_results(
            prepared[id(plan)], cost_model=self._host.cost_model
        )
        if plan.negated:
            return self._complement(table, matches)
        return matches

    @staticmethod
    def _complement(table: Table, matches: np.ndarray) -> np.ndarray:
        universe = np.arange(table.row_count, dtype=np.int64)
        return np.setdiff1d(universe, matches, assume_unique=False)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def select(self, plan: SelectPlan) -> ServerResult:
        table = self._catalog.table(plan.table)
        record_ids = self.filter_record_ids(table, plan.filter)
        return self._render_rows(plan, table, record_ids)

    def _render_column(
        self, table: Table, name: str, record_ids: np.ndarray
    ) -> ResultColumn:
        column = table.column(name)
        if isinstance(column, PlainStoredColumn):
            data: list[Any] = [column.value_at(int(rid)) for rid in record_ids]
            return ResultColumn(table.name, name, encrypted=False, data=data)
        entries, index, key_epoch = column.render_entries(record_ids)
        return ResultColumn(
            table.name,
            name,
            encrypted=True,
            data=entries,
            key_epoch=key_epoch,
            index=index,
        )

    # ------------------------------------------------------------------
    # Analytics pushdown (PR 9)
    # ------------------------------------------------------------------
    def select_pushdown(self, plan: SelectPlan) -> PushdownSelectResult:
        """One SELECT through the cost-based pushdown router.

        Filters run exactly as in :meth:`select`; what changes is what ships
        back. Aggregates/GROUP BY go through the ``aggregate_groups`` ecall
        and return padded group frames; an eligible ORDER BY + LIMIT sorts
        the attribute vector in ordinal space and ships only the top rows;
        everything else — including every structural or cost fallback — is
        the unchanged row-shipping path, with the decision attached.
        """
        table = self._catalog.table(plan.table)
        decisions, request = pushdown_request(plan, self._catalog)
        if request is not None and self._host is None:
            decisions = _replace_decision(
                decisions, decisions[0].clause, False, "no enclave attached"
            )
            request = None
        if request is None:
            return PushdownSelectResult(
                decisions=decisions, rows=self.select(plan)
            )
        record_ids = self.filter_record_ids(table, plan.filter)
        if isinstance(request, AggregatePushdown):
            return self._select_aggregate_pushdown(
                plan, table, decisions, request, record_ids
            )
        return self._select_order_pushdown(
            plan, table, decisions, request, record_ids
        )

    def explain_pushdown(self, plan: SelectPlan) -> tuple:
        """The routing decisions :meth:`select_pushdown` would make, without
        executing. The cost gate runs on the table's live row count — the
        static stand-in for the post-filter cardinality EXPLAIN cannot know."""
        table = self._catalog.table(plan.table)
        decisions, request = pushdown_request(plan, self._catalog)
        if request is not None and self._host is None:
            return _replace_decision(
                decisions, decisions[0].clause, False, "no enclave attached"
            )
        if isinstance(request, AggregatePushdown):
            pushed, note = self._aggregate_cost_gate(
                plan, table, request, table.live_row_count
            )
            original = decisions[0].reason
            reason = f"{original}; {note}" if pushed else note
            decisions = _replace_decision(decisions, "aggregate", pushed, reason)
        return decisions

    def _select_aggregate_pushdown(
        self, plan, table, decisions, request, record_ids
    ) -> PushdownSelectResult:
        pushed, note = self._aggregate_cost_gate(
            plan, table, request, len(record_ids)
        )
        if pushed:
            # The structural check ran before filtering; a rotation may have
            # started since. Re-check against the live columns — a raced
            # query falls back to row shipping rather than mixing stores.
            for name in (request.group_column, *request.measure_columns):
                if name is None:
                    continue
                if getattr(table.column(name), "shadow", None) is not None:
                    pushed = False
                    note = f"rotation started on {name!r} mid-query: proxy-side"
                    break
        if not pushed:
            decisions = _replace_decision(decisions, "aggregate", False, note)
            return PushdownSelectResult(
                decisions=decisions,
                rows=self._render_rows(plan, table, record_ids),
            )
        decisions = _replace_decision(
            decisions, "aggregate", True, f"{decisions[0].reason}; {note}"
        )
        segment_lists: dict[str, list] = {}
        if request.group_column is not None:
            segment_lists["__group__"] = table.column(
                request.group_column
            ).ordinal_segments(record_ids)
        for name in request.measure_columns:
            segment_lists[name] = table.column(name).ordinal_segments(record_ids)
        segments = _assemble_segments(segment_lists, len(record_ids))
        frames = self._host.ecall(
            "aggregate_groups",
            table.name,
            request.specs,
            segments,
            group_column=request.group_column,
        )
        aggregate = AggregateFrames(
            table_name=table.name,
            group_column=request.group_column,
            labels=tuple(label for _function, _column, label in request.specs),
            frames=tuple(frames),
        )
        return PushdownSelectResult(decisions=decisions, aggregate=aggregate)

    def _select_order_pushdown(
        self, plan, table, decisions, request: OrderPushdown, record_ids
    ) -> PushdownSelectResult:
        column = table.column(request.column)
        if (
            getattr(column, "shadow", None) is not None
            or len(column.partition_builds) != 1
            or column.delta_blobs
        ):
            decisions = _replace_decision(
                decisions,
                "order-by",
                False,
                "column layout changed mid-query: full sort proxy-side",
            )
            return PushdownSelectResult(
                decisions=decisions,
                rows=self._render_rows(plan, table, record_ids),
            )
        # Single partition and no delta: global RecordIDs are partition-local
        # positions, and ValueID order is value order (sorted kind). A stable
        # argsort keeps ties in RecordID order, matching the proxy's stable
        # re-sort of the shipped rows.
        vids = column.partition_builds[0].attribute_vector[record_ids]
        order = np.argsort(-vids if request.descending else vids, kind="stable")
        keep = record_ids[order][: request.limit]
        return PushdownSelectResult(
            decisions=decisions,
            rows=self._render_rows(plan, table, keep),
            ordered=True,
        )

    def _render_rows(self, plan, table, record_ids) -> ServerResult:
        result = ServerResult(table_name=table.name, record_ids=record_ids)
        for name in plan.needed_columns:
            result.columns[name] = self._render_column(table, name, record_ids)
        return result

    def _aggregate_cost_gate(
        self, plan, table, request: AggregatePushdown, rows: int
    ) -> tuple[bool, str]:
        """Row shipping vs. pushdown, in the cost model's cycle currency.

        Uses only public quantities: the filtered row count, dictionary
        entry counts (distinct-value upper bounds), and blob sizes. Proxy
        path ≈ one AES-GCM per row per encrypted result column; pushdown ≈
        one ecall + one AES-GCM per *distinct* group/measure entry + the
        padded frame encryptions.
        """
        parameters = self._host.cost_model.parameters
        columns = [
            name
            for name in (request.group_column, *request.measure_columns)
            if name is not None
        ]
        blob_bytes = 64
        distinct = 0
        for name in columns:
            column = table.column(name)
            entries = sum(
                len(build.dictionary) for build in column.partition_builds
            ) + len(column.delta_blobs)
            distinct += min(entries, rows)
            for build in column.partition_builds:
                if len(build.dictionary):
                    blob_bytes = max(blob_bytes, len(build.dictionary.entry(0)))
                    break
        per_blob = (
            parameters.aes_gcm_fixed_cycles
            + blob_bytes * parameters.aes_gcm_per_byte_cycles
        )
        encrypted_needed = sum(
            1 for name in plan.needed_columns if table.spec(name).is_encrypted
        )
        proxy_cost = rows * max(1, encrypted_needed) * per_blob + rows * (
            parameters.untrusted_load_cycles
        )
        if request.group_column is not None:
            group_column = table.column(request.group_column)
            group_entries = sum(
                len(build.dictionary) for build in group_column.partition_builds
            ) + len(group_column.delta_blobs)
        else:
            group_entries = 1
        frames = _padded_frames(min(group_entries, max(1, rows)))
        frame_bytes = 64 + 17 * len(request.specs)
        push_cost = (
            parameters.ecall_cycles
            + distinct * per_blob
            + frames
            * (
                parameters.aes_gcm_fixed_cycles
                + frame_bytes * parameters.aes_gcm_per_byte_cycles
            )
        )
        if push_cost >= proxy_cost:
            return False, (
                f"cost: row shipping cheaper (~{proxy_cost} vs ~{push_cost} "
                f"cycles for {rows} rows, ~{distinct} distinct entries)"
            )
        return True, (
            f"cost: ~{push_cost} vs ~{proxy_cost} cycles "
            f"({rows} rows -> {frames} padded frames, "
            f"~{distinct} distinct decryptions)"
        )

    def select_join(self, plan: JoinSelectPlan, salt: bytes) -> ServerResult:
        """Inner equi-join on enclave-issued join tokens.

        Filters run per table first; the surviving rows are matched by the
        opaque tokens the enclave derives for the two join columns under the
        per-query ``salt``, and the requested columns of both sides are
        rendered for every matched pair.
        """
        left_table = self._catalog.table(plan.left_table)
        right_table = self._catalog.table(plan.right_table)
        left_rids = self.filter_record_ids(left_table, plan.left_filter)
        right_rids = self.filter_record_ids(right_table, plan.right_filter)

        left_keys = self._join_keys(left_table, plan.left_column, salt)
        right_keys = self._join_keys(right_table, plan.right_column, salt)

        matches_by_key: dict = {}
        for rid in right_rids:
            matches_by_key.setdefault(right_keys[int(rid)], []).append(int(rid))

        left_pairs: list[int] = []
        right_pairs: list[int] = []
        for rid in left_rids:
            for right_rid in matches_by_key.get(left_keys[int(rid)], ()):
                left_pairs.append(int(rid))
                right_pairs.append(right_rid)

        result = ServerResult(
            table_name=plan.left_table,
            record_ids=np.asarray(left_pairs, dtype=np.int64),
        )
        for table, needed, pair_rids in (
            (left_table, plan.left_needed, left_pairs),
            (right_table, plan.right_needed, right_pairs),
        ):
            rid_array = np.asarray(pair_rids, dtype=np.int64)
            for name in needed:
                rendered = self._render_column(table, name, rid_array)
                result.columns[f"{table.name}.{name}"] = rendered
        return result

    def _join_keys(self, table: Table, column_name: str, salt: bytes) -> list:
        """Per-row join keys, one per global RecordID: plaintext values, or
        the enclave's per-entry join tokens looked up by each row's ValueID."""
        column = table.column(column_name)
        if isinstance(column, PlainStoredColumn):
            return column.join_keys()
        if self._host is None:
            raise QueryError("no enclave available for encrypted joins")
        tokens: list[bytes] = []
        every_row = np.arange(len(column), dtype=np.int64)
        for dictionary, vids in column.ordinal_segments(every_row):
            entry_tokens = self._host.ecall("join_tokens", dictionary, salt)
            tokens.extend(entry_tokens[vid] for vid in vids.tolist())
        return tokens

    def insert_prepared(self, table_name: str, prepared_rows: list[dict]) -> int:
        """Append proxy-prepared rows (encrypted columns carry transit blobs).

        The statement is the unit. (1) Every row must cover exactly the
        table's columns, every plaintext value is validated and every
        encrypted payload must be a blob. (2) Holding the rotation lock of
        every encrypted column (schema order) for the rest of the statement
        — so it cannot straddle a key-rotation flip — one ``reseal_delta``
        crossing per encrypted column re-seals that column's transit blobs
        (epoch 0) under its storage epoch. (3) Only then does every column's
        delta store grow, committed by one ``register_inserts``. A failure
        in (1) or (2) leaves the table exactly as it was.

        Returns the number of inserted rows.
        """
        table = self._catalog.table(table_name)
        expected = set(table.column_names)
        for prepared in prepared_rows:
            if set(prepared) != expected:
                raise QueryError("prepared row does not cover every column")
        columns = [(name, table.column(name)) for name in table.column_names]
        staged = {name: [row[name] for row in prepared_rows] for name, _ in columns}
        encrypted = []
        for name, column in columns:
            if isinstance(column, PlainStoredColumn):
                for value in staged[name]:
                    column.spec.value_type.validate(value)
                continue
            if self._host is None:
                raise QueryError("no enclave available for inserts")
            if not all(isinstance(blob, bytes) for blob in staged[name]):
                raise QueryError(f"encrypted column {name!r} takes PAE blobs")
            encrypted.append((name, column))
        with ExitStack() as locks:
            for _, column in encrypted:
                locks.enter_context(column.rotation_lock())
            for name, column in encrypted:
                staged[name] = self._host.ecall(
                    "reseal_delta",
                    table.name,
                    name,
                    staged[name],
                    to_epoch=column.key_epoch,
                )
            for name, column in columns:
                if isinstance(column, PlainStoredColumn):
                    column.delta_values.extend(staged[name])
                else:
                    column.extend_delta(staged[name])
            table.register_inserts(len(prepared_rows))
        return len(prepared_rows)

    def delete(self, plan: DeletePlan) -> int:
        table = self._catalog.table(plan.table)
        record_ids = self.filter_record_ids(table, plan.filter)
        return table.delete_rows(record_ids)

    # ------------------------------------------------------------------
    # Delta merge (paper §4.3)
    # ------------------------------------------------------------------
    def merge(self, plan: MergePlan) -> int:
        """Incremental merge: rebuild only the partitions that changed.

        A main-store partition is *dirty* when it contains at least one
        cleared validity bit; clean partitions are carried over untouched
        (their dictionaries, attribute vectors — and the enclave's cached
        plaintext for them — survive). Valid delta rows are absorbed into
        the final partition when they fit, otherwise they become fresh tail
        partitions of at most ``partition_rows`` rows each. The merge cost
        is therefore proportional to the dirty rows, not the table size.

        One plan serves every column of the table: each new partition is
        either an old partition kept as it is or the ascending global
        RecordIDs that survive into it. A plaintext column rebuilds from
        those rows' ``values_at``; an encrypted column takes their
        ``ordinal_segment_lists`` from one snapshot and hands each rebuilt
        partition's segments to one ``rebuild_for_merge`` crossing, in
        partition order in the calling thread.
        """
        table = self._catalog.table(plan.table)
        valid = np.asarray(table.validity, dtype=bool)
        survivors = int(valid.sum())
        columns = [table.column(name) for name in table.column_names]

        # All columns of a table share one partition layout by construction.
        lengths = columns[0].partition_lengths if columns else []
        for column in columns[1:]:
            if column.partition_lengths != lengths:
                raise QueryError(
                    f"misaligned column partitions in table {table.name}"
                )
        main_rows = sum(lengths)
        partition_rows = (
            getattr(table, "partition_rows", None) or DEFAULT_PARTITION_ROWS
        )
        pmap = PartitionMap(lengths)
        dirty = set(pmap.dirty_partitions(valid))

        delta_rows = main_rows + np.flatnonzero(valid[main_rows:])
        delta_count = int(len(delta_rows))

        # Absorb the delta into the last partition when the combined row
        # count still fits one partition (keeps small tables at their seed
        # single-partition layout); overflow goes to fresh tail partitions.
        absorb_index = None
        if delta_count and lengths:
            last = len(lengths) - 1
            last_survivors = int(
                valid[pmap.starts[last] : pmap.starts[last] + lengths[last]].sum()
            )
            if 0 < last_survivors and last_survivors + delta_count <= partition_rows:
                absorb_index = last
                dirty.add(last)

        stats = MergeStats(
            table=table.name,
            partitions_total=len(lengths),
            delta_rows_merged=delta_count,
            rows_after=survivors,
        )
        # The plan: (old partition index, None) keeps a partition as it is;
        # (old index or None for a fresh tail, RecordIDs) rebuilds one.
        steps: list[tuple[int | None, np.ndarray | None]] = []
        for index, (start, length) in enumerate(zip(pmap.starts, lengths)):
            if index not in dirty:
                steps.append((index, None))
                stats.partitions_kept += 1
                continue
            rows = start + np.flatnonzero(valid[start : start + length])
            if index == absorb_index:
                rows = np.concatenate([rows, delta_rows])
            if len(rows):
                steps.append((index, rows))
                stats.partitions_rebuilt += 1
            else:
                stats.partitions_dropped += 1
        if absorb_index is None:
            for offset in range(0, delta_count, partition_rows):
                steps.append((None, delta_rows[offset : offset + partition_rows]))
                stats.tail_partitions_added += 1

        for column in columns:
            if isinstance(column, PlainStoredColumn):
                column.partitions = [
                    column.partitions[index]
                    if rows is None
                    else DictionaryEncodedColumn.from_values(column.values_at(rows))
                    for index, rows in steps
                ]
                column.delta_values = []
                column.partition_rows = partition_rows
                continue
            if self._host is None:
                raise QueryError("no enclave available for merge")
            new_builds = []
            new_ids = []
            segment_lists = iter(
                column.ordinal_segment_lists(
                    [rows for _index, rows in steps if rows is not None]
                )
            )
            for index, rows in steps:
                if rows is None:
                    new_builds.append(column.partition_builds[index])
                    new_ids.append(column.partition_ids[index])
                    continue
                partition_id = (
                    column.allocate_partition_id()
                    if index is None
                    else column.partition_ids[index]
                )
                new_builds.append(
                    self._host.ecall(
                        "rebuild_for_merge",
                        table.name,
                        column.spec.name,
                        column.spec.protection,
                        column.spec.value_type,
                        next(segment_lists),
                        bsmax=column.spec.bsmax,
                        partition_id=partition_id,
                        key_epoch=column.key_epoch,
                    )
                )
                new_ids.append(partition_id)
            column.set_partitions(new_builds, ids=new_ids)
            column.delta_blobs = []
        table.reset_validity(survivors)
        self.last_merge_stats = stats
        return survivors
