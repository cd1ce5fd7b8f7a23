"""The trusted proxy (paper §3.1, §4.2 steps 5 and 14).

Applications speak plain SQL to the proxy. The proxy parses and plans each
statement against its schema mirror, converts every filter to a closed range
in ordinal space, encrypts the range bounds per column key, forwards the
plan to the server, and finally decrypts the returned columns — computing
aggregates, grouping, ordering, and limits on the plaintext, since an
untrusted server cannot do any of that on ciphertext. The whole process is
transparent to the application.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.columnstore.catalog import Catalog
from repro.columnstore.types import ColumnSpec, ValueType
from repro.crypto.pae import Pae
from repro.encdict.enclave_app import encrypt_search_range
from repro.encdict.search import OrdinalRange
from repro.exceptions import QueryError
from repro.sql.ast_nodes import Aggregate

if TYPE_CHECKING:  # the proxy is written against the server *surface* only:
    # in-process it talks to an EncDBDBServer, remotely to a repro.net
    # RemoteServer stub relaying the same calls over the wire.
    from repro.server.dbms import EncDBDBServer
from repro.sql.parser import parse
from repro.sql.planner import (
    CreatePlan,
    DeletePlan,
    EncryptedRangeFilter,
    FilterNode,
    FilterPlan,
    InsertPlan,
    JoinSelectPlan,
    MergePlan,
    Planner,
    PostProcessing,
    PrefixFilter,
    RangeFilter,
    SelectPlan,
    UpdatePlan,
)
from repro.sql.result import QueryResult, ServerResult


class Proxy:
    """Trusted query gateway holding ``SKDB``."""

    def __init__(self, server: "EncDBDBServer", master_key: bytes, pae: Pae) -> None:
        self._server = server
        self._master_key = master_key
        self._pae = pae
        # Schema mirror: table definitions only, never any data.
        self._schema = Catalog()
        self._planner = Planner(self._schema)
        from repro.crypto.drbg import HmacDrbg

        self._salt_rng = HmacDrbg(master_key + b"proxy-join-salt")
        # Analytics pushdown (PR 9): off by default so the proxy-side
        # reference path stays the behavior oracle; ``enable_pushdown()``
        # opts a session in. ``last_pushdown`` records the routing
        # decisions of the most recent pushdown-eligible SELECT.
        self._pushdown_enabled = False
        self.last_pushdown: tuple | None = None

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def enable_pushdown(self, enabled: bool = True) -> None:
        """Toggle in-enclave analytics pushdown for this session (PR 9)."""
        self._pushdown_enabled = enabled

    @property
    def pushdown_enabled(self) -> bool:
        return self._pushdown_enabled

    def execute(self, sql: str):
        """Run one SQL statement; returns a QueryResult or affected count."""
        plan = self._planner.plan(parse(sql))
        if isinstance(plan, CreatePlan):
            return self._execute_create(plan)
        if isinstance(plan, InsertPlan):
            return self._execute_insert(plan)
        if isinstance(plan, SelectPlan):
            return self._execute_select(plan)
        if isinstance(plan, JoinSelectPlan):
            return self._execute_join_select(plan)
        if isinstance(plan, DeletePlan):
            return self._server.execute_delete(
                DeletePlan(plan.table, self._encrypt_filter(plan.table, plan.filter))
            )
        if isinstance(plan, UpdatePlan):
            return self._execute_update(plan)
        if isinstance(plan, MergePlan):
            return self._server.execute_merge(plan)
        raise QueryError(f"unsupported plan {type(plan).__name__}")

    def explain(self, sql: str) -> str:
        """Describe how a statement would execute, without executing it."""
        from repro.sql.planner import describe_plan
        from repro.sql.printer import partition_fanout_lines

        plan = self._planner.plan(parse(sql))
        description = describe_plan(plan, self._schema)
        # Partition fan-out is only visible in-process: remote deployments
        # expose a schema mirror without column stores, so the annotation is
        # silently absent there (partition layout never crosses the wire).
        catalog = getattr(self._server, "catalog", None)
        lines = partition_fanout_lines(plan, catalog)
        # Cluster deployments surface their shard routing the same way: the
        # router exposes an ``explain_routing`` hook over its shard map
        # (topology facts only — endpoints and partition spans).
        explain_routing = getattr(self._server, "explain_routing", None)
        if explain_routing is not None:
            lines.extend(explain_routing(plan))
        # Online rotations in flight on the plan's table(s): which phase the
        # migration sits in and which partition versions currently serve.
        explain_migrations = getattr(self._server, "explain_migrations", None)
        if explain_migrations is not None:
            from repro.sql.printer import migration_lines

            lines.extend(migration_lines(explain_migrations(plan)))
        # Analytics pushdown routing (PR 9): where each aggregate/ORDER BY
        # clause would run and why. Filters are encrypted first — EXPLAIN
        # plans cross the same trust boundary as executed ones.
        explain_pushdown = getattr(self._server, "explain_pushdown", None)
        if self._pushdown_enabled and explain_pushdown is not None:
            pd_plan = None
            if isinstance(plan, SelectPlan):
                pd_plan = SelectPlan(
                    plan.table,
                    plan.needed_columns,
                    self._encrypt_filter(plan.table, plan.filter),
                    plan.post,
                )
            elif isinstance(plan, JoinSelectPlan):
                pd_plan = JoinSelectPlan(
                    left_table=plan.left_table,
                    right_table=plan.right_table,
                    left_column=plan.left_column,
                    right_column=plan.right_column,
                    left_needed=plan.left_needed,
                    right_needed=plan.right_needed,
                    left_filter=self._encrypt_filter(
                        plan.left_table, plan.left_filter
                    ),
                    right_filter=self._encrypt_filter(
                        plan.right_table, plan.right_filter
                    ),
                    post=plan.post,
                )
            if pd_plan is not None:
                from repro.sql.printer import pushdown_lines

                lines.extend(pushdown_lines(explain_pushdown(pd_plan)))
        if lines:
            description = description + "\n" + "\n".join(lines)
        return description

    def register_schema(self, table_name: str, specs: list[ColumnSpec]) -> None:
        """Mirror an externally created table (bulk-load path)."""
        table = self._schema.create_table(table_name, specs)
        table.attach_columns(
            {spec.name: _SchemaOnlyColumn(spec) for spec in specs}, 0
        )

    # ------------------------------------------------------------------
    # Statement handling
    # ------------------------------------------------------------------
    def _execute_create(self, plan: CreatePlan) -> int:
        self._server.create_table(plan)
        self.register_schema(plan.table, list(plan.specs))
        return 0

    def _execute_insert(self, plan: InsertPlan) -> int:
        prepared = [self._prepare_row(plan.table, row) for row in plan.rows]
        return self._server.execute_insert(plan.table, prepared)

    def _prepare_row(self, table_name: str, row: dict) -> dict:
        table = self._schema.table(table_name)
        prepared = {}
        for name, value in row.items():
            spec = table.spec(name)
            if spec.is_encrypted:
                key = self._column_key(table_name, name)
                prepared[name] = self._pae.encrypt(
                    key, spec.value_type.to_bytes(value)
                )
            else:
                prepared[name] = value
        return prepared

    def _execute_select(self, plan: SelectPlan) -> QueryResult:
        encrypted_plan = SelectPlan(
            plan.table,
            plan.needed_columns,
            self._encrypt_filter(plan.table, plan.filter),
            plan.post,
        )
        pushdown = getattr(self._server, "execute_select_pushdown", None)
        if self._pushdown_enabled and pushdown is not None:
            return self._execute_select_pushdown(plan, encrypted_plan, pushdown)
        server_result = self._server.execute_select(encrypted_plan)
        rows = self._decrypt_rows(plan.table, plan.needed_columns, server_result)
        return self._post_process(plan.post, rows)

    def _execute_select_pushdown(
        self, plan: SelectPlan, encrypted_plan: SelectPlan, pushdown
    ) -> QueryResult:
        """Routed SELECT: aggregates may return as padded group frames.

        Whatever the server pushed, the proxy re-applies its full
        post-processing tail — ORDER BY/projection/DISTINCT/LIMIT are
        idempotent over an already-ordered or already-aggregated result, so
        a lying server can reorder nothing and the proxy-side reference
        path stays the correctness oracle.
        """
        result = pushdown(encrypted_plan)
        self.last_pushdown = tuple(result.decisions)
        if result.aggregate is not None:
            rows = self._merge_aggregate_frames(plan, result.aggregate)
            return self._finish_rows(plan.post, rows)
        rows = self._decrypt_rows(plan.table, plan.needed_columns, result.rows)
        return self._post_process(plan.post, rows)

    def _merge_aggregate_frames(self, plan: SelectPlan, aggregate) -> list[dict]:
        """Decrypt padded group frames and merge partial aggregate states.

        Frames arrive PAE-encrypted under the dedicated aggregate transit
        key; dummies (the power-of-two padding) are dropped after
        decryption. Multi-partition and multi-shard executions return one
        frame per (segment, group) — states for the same group key merge
        associatively (COUNT/SUM/AVG add, MIN/MAX fold), preserving
        first-seen order, which is RecordID order end to end and therefore
        matches the proxy-side reference grouping exactly.
        """
        from repro.encdict.enclave_app import AGGREGATE_KEY_COLUMN, decode_group_frame

        key = self._column_key(aggregate.table_name, AGGREGATE_KEY_COLUMN)
        aggs = [
            item for item in plan.post.items if isinstance(item, Aggregate)
        ]
        if tuple(item.label for item in aggs) != tuple(aggregate.labels):
            raise QueryError("aggregate frames do not match the planned query")
        merged: dict[bytes, list[list[int]]] = {}
        for frame in aggregate.frames:
            dummy, key_bytes, states = decode_group_frame(self._pae.decrypt(key, frame))
            if dummy:
                continue
            if len(states) != len(aggs):
                raise QueryError("aggregate frame arity mismatch")
            current = merged.get(key_bytes)
            if current is None:
                merged[key_bytes] = [list(state) for state in states]
                continue
            for item, have, incoming in zip(aggs, current, states):
                present, a, b = incoming
                if not present:
                    continue
                if not have[0]:
                    have[:] = [1, a, b]
                elif item.function == "MIN":
                    have[1] = min(have[1], a)
                elif item.function == "MAX":
                    have[1] = max(have[1], a)
                else:  # COUNT / SUM / AVG states are additive
                    have[1] += a
                    have[2] += b
        group_type = None
        if aggregate.group_column is not None:
            group_type = (
                self._schema.table(aggregate.table_name)
                .spec(aggregate.group_column)
                .value_type
            )
        rows: list[dict] = []
        for key_bytes, states in merged.items():
            row: dict[str, Any] = {}
            if group_type is not None:
                row[aggregate.group_column] = group_type.from_bytes(key_bytes)
            for item, (present, a, b) in zip(aggs, states):
                if not present:
                    row[item.label] = None
                elif item.function == "AVG":
                    row[item.label] = a / b if b else None
                else:
                    row[item.label] = a
            rows.append(row)
        return rows

    def _execute_join_select(self, plan: JoinSelectPlan) -> QueryResult:
        encrypted_plan = JoinSelectPlan(
            left_table=plan.left_table,
            right_table=plan.right_table,
            left_column=plan.left_column,
            right_column=plan.right_column,
            left_needed=plan.left_needed,
            right_needed=plan.right_needed,
            left_filter=self._encrypt_filter(plan.left_table, plan.left_filter),
            right_filter=self._encrypt_filter(plan.right_table, plan.right_filter),
            post=plan.post,
        )
        # Fresh per-query salt: join tokens are unlinkable across queries.
        salt = self._salt_rng.random_bytes(16)
        server_result = self._server.execute_join_select(encrypted_plan, salt)
        decrypted = self._decrypt_result_columns(server_result)
        names = list(decrypted)
        rows = [
            {name: decrypted[name][i] for name in names}
            for i in range(server_result.row_count)
        ]
        return self._post_process(plan.post, rows)

    def _execute_update(self, plan: UpdatePlan) -> int:
        """UPDATE = read the matching rows, invalidate them, re-insert."""
        table = self._schema.table(plan.table)
        read_plan = SelectPlan(
            plan.table,
            tuple(table.column_names),
            self._encrypt_filter(plan.table, plan.filter),
            PostProcessing(items=tuple(table.column_names)),
        )
        server_result = self._server.execute_select(read_plan)
        rows = self._decrypt_rows(plan.table, tuple(table.column_names), server_result)
        if not rows:
            return 0
        self._server.delete_record_ids(
            plan.table, server_result.record_ids
        )
        assignments = dict(plan.assignments)
        new_rows = []
        for row in rows:
            updated = dict(row)
            updated.update(assignments)
            new_rows.append(self._prepare_row(plan.table, updated))
        self._server.execute_insert(plan.table, new_rows)
        return len(new_rows)

    # ------------------------------------------------------------------
    # Filter encryption (paper §4.2 step 5)
    # ------------------------------------------------------------------
    def _column_key(
        self, table_name: str, column_name: str, key_epoch: int = 0
    ) -> bytes:
        """Epoch 0 (the default) doubles as the permanent transit key for
        filter bounds and insert blobs; results decrypt under the storage
        epoch the server stamps on each :class:`ResultColumn` (it advances
        when an online key rotation finalizes)."""
        from repro.crypto.kdf import derive_column_key

        return derive_column_key(
            self._master_key, table_name, column_name, key_epoch=key_epoch
        )

    def _encrypt_filter(
        self, table_name: str, plan: FilterPlan | None
    ) -> FilterPlan | None:
        if plan is None:
            return None
        if isinstance(plan, FilterNode):
            return FilterNode(
                plan.operator,
                tuple(
                    self._encrypt_filter(table_name, child) for child in plan.children
                ),
            )
        if isinstance(plan, RangeFilter):
            spec = self._schema.table(table_name).spec(plan.column)
            if not spec.is_encrypted:
                return plan
            search = self._to_ordinal_range(spec.value_type, plan)
            tau = encrypt_search_range(
                self._pae, self._column_key(table_name, plan.column), search
            )
            return EncryptedRangeFilter(plan.column, tau, negated=plan.negated)
        if isinstance(plan, PrefixFilter):
            spec = self._schema.table(table_name).spec(plan.column)
            if not spec.is_encrypted:
                return plan
            # A LIKE-prefix is just another closed ordinal range: after
            # encryption the server cannot tell it from any other filter.
            low, high = spec.value_type.prefix_ordinal_range(plan.prefix)
            tau = encrypt_search_range(
                self._pae,
                self._column_key(table_name, plan.column),
                OrdinalRange(low, high),
            )
            return EncryptedRangeFilter(plan.column, tau, negated=plan.negated)
        raise QueryError(f"cannot encrypt filter node {type(plan).__name__}")

    @staticmethod
    def _to_ordinal_range(value_type: ValueType, plan: RangeFilter) -> OrdinalRange:
        """Normalize open/exclusive bounds to a closed ordinal interval.

        Exploits that column domains are discrete: ``v > x`` equals
        ``v >= succ(x)``. Open ends become the domain extrema — the
        ``-inf``/``+inf`` placeholders of the paper.
        """
        if plan.low is None:
            low = 0
        else:
            low = value_type.ordinal(plan.low) + (0 if plan.low_inclusive else 1)
        if plan.high is None:
            high = value_type.domain_size - 1
        else:
            high = value_type.ordinal(plan.high) - (0 if plan.high_inclusive else 1)
        return OrdinalRange(low, high)

    # ------------------------------------------------------------------
    # Result decryption and rendering (paper §4.2 step 14)
    # ------------------------------------------------------------------
    def _decrypt_rows(
        self, table_name: str, needed: tuple[str, ...], result: ServerResult
    ) -> list[dict]:
        decrypted = self._decrypt_result_columns(result)
        return [
            {name: decrypted[name][i] for name in needed}
            for i in range(result.row_count)
        ]

    def _decrypt_result_columns(self, result: ServerResult) -> dict[str, list]:
        """Decrypt every returned column using its attached metadata
        (paper §4.2 step 14: the proxy derives each column's key from the
        table/column names the result renderer attached).

        An encrypted column arrives as its distinct referenced entries plus
        a per-row index: every shipped entry is authenticated and decoded
        once, then the index fans the values out to the rows.
        """
        decrypted: dict[str, list] = {}
        for key_name, column in result.columns.items():
            if column.encrypted:
                index = column.row_index(result.row_count)
                key = self._column_key(
                    column.table_name, column.column_name, column.key_epoch
                )
                value_type = (
                    self._schema.table(column.table_name)
                    .spec(column.column_name)
                    .value_type
                )
                values = [
                    value_type.from_bytes(plaintext)
                    for plaintext in self._pae.decrypt_many(key, column.data)
                ]
                decrypted[key_name] = [values[i] for i in index.tolist()]
            else:
                decrypted[key_name] = list(column.data)
        return decrypted

    def _post_process(self, post: PostProcessing, rows: list[dict]) -> QueryResult:
        if post.group_by:
            rows = self._group(post, rows)
        elif post.has_aggregates:
            rows = [
                {
                    item.label: _aggregate(item, rows)
                    for item in post.items
                    if isinstance(item, Aggregate)
                }
            ]
        return self._finish_rows(post, rows)

    def _finish_rows(self, post: PostProcessing, rows: list[dict]) -> QueryResult:
        """Shared post-processing tail: ORDER BY, projection, DISTINCT,
        LIMIT. Both the reference path (after proxy-side grouping) and the
        pushdown path (after frame merging) end here, pinning the
        post-processing order to one implementation."""
        if post.order_by:
            for order in reversed(post.order_by):
                rows = sorted(
                    rows, key=lambda row: row[order.column], reverse=order.descending
                )
        column_names = [
            item.label if isinstance(item, Aggregate) else item for item in post.items
        ]
        projected = [
            tuple(row[name] for name in column_names) for row in rows
        ]
        if post.distinct:
            seen = set()
            unique_rows = []
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            projected = unique_rows
        if post.limit is not None:
            projected = projected[: post.limit]
        return QueryResult(column_names, projected)

    def _group(self, post: PostProcessing, rows: list[dict]) -> list[dict]:
        groups: dict[tuple, list[dict]] = {}
        order: list[tuple] = []
        for row in rows:
            group_key = tuple(row[name] for name in post.group_by)
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(row)
        rendered = []
        for group_key in order:
            members = groups[group_key]
            out: dict[str, Any] = dict(zip(post.group_by, group_key))
            for item in post.items:
                if isinstance(item, Aggregate):
                    out[item.label] = _aggregate(item, members)
            rendered.append(out)
        return rendered


def _aggregate(item: Aggregate, rows: list[dict]):
    if item.function == "COUNT":
        return len(rows)
    values = [row[item.column] for row in rows]
    if not values:
        return None
    if item.function == "SUM":
        return sum(values)
    if item.function == "AVG":
        return sum(values) / len(values)
    if item.function == "MIN":
        return min(values)
    if item.function == "MAX":
        return max(values)
    raise QueryError(f"unknown aggregate {item.function}")


class _SchemaOnlyColumn:
    """Placeholder column object for the proxy's schema mirror."""

    def __init__(self, spec: ColumnSpec) -> None:
        self.spec = spec

    def __len__(self) -> int:
        return 0
