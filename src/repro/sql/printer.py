"""Render AST nodes back to SQL text.

Used by EXPLAIN output, error messages, and the parser round-trip property
tests (``parse(to_sql(ast)) == ast``), which pin the grammar and the
printer against each other.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import QueryError
from repro.sql.ast_nodes import (
    Aggregate,
    Comparison,
    CreateTable,
    Delete,
    Insert,
    Logical,
    MergeTable,
    Select,
    Update,
)


def _literal(value: Any) -> str:
    if isinstance(value, bool):
        raise QueryError("boolean literals are not part of the SQL subset")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    # DATE values and other coerced types print as their ISO string form.
    return "'" + str(value) + "'"


def _predicate(node) -> str:
    if isinstance(node, Comparison):
        if node.operator == "BETWEEN":
            return (
                f"{node.column} BETWEEN {_literal(node.value)} "
                f"AND {_literal(node.high_value)}"
            )
        if node.operator == "IN":
            members = ", ".join(_literal(member) for member in node.value)
            return f"{node.column} IN ({members})"
        if node.operator == "LIKE":
            return f"{node.column} LIKE {_literal(node.value)}"
        return f"{node.column} {node.operator} {_literal(node.value)}"
    if isinstance(node, Logical):
        if node.operator == "NOT":
            return f"NOT ({_predicate(node.operands[0])})"
        joined = f" {node.operator} ".join(
            f"({_predicate(operand)})" for operand in node.operands
        )
        return joined
    raise QueryError(f"cannot print predicate {type(node).__name__}")


def _select_item(item) -> str:
    if isinstance(item, Aggregate):
        return item.label
    return str(item)


def to_sql(node) -> str:
    """SQL text for any statement AST node."""
    if isinstance(node, CreateTable):
        columns = []
        for column in node.columns:
            parts = [column.name]
            if column.protection:
                parts.append(column.protection)
            parts.append(column.type_sql)
            if column.bsmax is not None:
                parts.append(f"BSMAX {column.bsmax}")
            columns.append(" ".join(parts))
        return f"CREATE TABLE {node.table} ({', '.join(columns)})"

    if isinstance(node, Insert):
        columns = f" ({', '.join(node.columns)})" if node.columns else ""
        rows = ", ".join(
            "(" + ", ".join(_literal(value) for value in row) + ")"
            for row in node.rows
        )
        return f"INSERT INTO {node.table}{columns} VALUES {rows}"

    if isinstance(node, Select):
        parts = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        if node.is_star:
            parts.append("*")
        else:
            parts.append(", ".join(_select_item(item) for item in node.items))
        parts.append(f"FROM {node.table}")
        if node.join is not None:
            parts.append(
                f"JOIN {node.join.right_table} ON "
                f"{node.join.left_column} = {node.join.right_column}"
            )
        if node.where is not None:
            parts.append(f"WHERE {_predicate(node.where)}")
        if node.group_by:
            parts.append("GROUP BY " + ", ".join(node.group_by))
        if node.order_by:
            rendered = [
                f"{item.column} DESC" if item.descending else f"{item.column} ASC"
                for item in node.order_by
            ]
            parts.append("ORDER BY " + ", ".join(rendered))
        if node.limit is not None:
            parts.append(f"LIMIT {node.limit}")
        return " ".join(parts)

    if isinstance(node, Delete):
        where = f" WHERE {_predicate(node.where)}" if node.where is not None else ""
        return f"DELETE FROM {node.table}{where}"

    if isinstance(node, Update):
        assignments = ", ".join(
            f"{column} = {_literal(value)}" for column, value in node.assignments
        )
        where = f" WHERE {_predicate(node.where)}" if node.where is not None else ""
        return f"UPDATE {node.table} SET {assignments}{where}"

    if isinstance(node, MergeTable):
        return f"MERGE TABLE {node.table}"

    raise QueryError(f"cannot print statement {type(node).__name__}")


# ----------------------------------------------------------------------
# EXPLAIN rendering (plan + partition fan-out)
# ----------------------------------------------------------------------
def _filter_columns(filter_plan, found: list[str]) -> None:
    """Column names referenced by a filter tree, in traversal order."""
    from repro.sql.planner import FilterNode

    if filter_plan is None:
        return
    if isinstance(filter_plan, FilterNode):
        for child in filter_plan.children:
            _filter_columns(child, found)
        return
    column = getattr(filter_plan, "column", None)
    if column is not None and column not in found:
        found.append(column)


def partition_fanout_lines(plan, catalog) -> list[str]:
    """EXPLAIN annotation: how each filtered column fans out per partition.

    ``catalog`` is the server's *data* catalog (tables with live column
    stores). A remote deployment exposes only the schema mirror — partition
    layout is then unknown here and the annotation is omitted, which is the
    point: partition metadata does not cross the wire.
    """
    from repro.columnstore.partition import PartitionMap
    from repro.sql.planner import (
        DeletePlan,
        JoinSelectPlan,
        MergePlan,
        SelectPlan,
    )

    if catalog is None:
        return []
    targets: list[tuple[str, list[str]]] = []
    if isinstance(plan, (SelectPlan, DeletePlan)):
        columns: list[str] = []
        _filter_columns(plan.filter, columns)
        targets.append((plan.table, columns))
    elif isinstance(plan, JoinSelectPlan):
        for table_name, filter_plan in (
            (plan.left_table, plan.left_filter),
            (plan.right_table, plan.right_filter),
        ):
            columns = []
            _filter_columns(filter_plan, columns)
            targets.append((table_name, columns))
    elif isinstance(plan, MergePlan):
        lines = []
        try:
            table = catalog.table(plan.table)
            lengths = (
                table.columns[table.column_names[0]].partition_lengths
                if table.column_names
                else []
            )
            dirty = PartitionMap(lengths).dirty_partitions(
                table.validity[: sum(lengths)]
            )
            delta_rows = table.row_count - sum(lengths)
            lines.append(
                f"merge {plan.table}: {len(dirty)} of {len(lengths)} "
                f"partition(s) dirty, {delta_rows} delta row(s) pending"
            )
        except (AttributeError, KeyError, TypeError):
            pass  # schema-only catalog: no layout to report
        return lines

    lines = []
    for table_name, columns in targets:
        for column_name in columns:
            try:
                table = catalog.table(table_name)
                column = table.columns[column_name]
                partitions = len(
                    getattr(column, "partition_builds", None)
                    or getattr(column, "partitions", ())
                )
                delta_rows = len(
                    getattr(column, "delta_blobs", None)
                    or getattr(column, "delta_values", ())
                )
            except (AttributeError, KeyError, TypeError):
                continue  # schema-only catalog: no layout to report
            stores = partitions + (1 if delta_rows else 0)
            lines.append(
                f"{table_name}.{column_name}: {partitions} main partition(s)"
                + (f" + delta ({delta_rows} rows)" if delta_rows else "")
                + f" -> {max(stores, 1)} dictionary search(es) per filter"
            )
    if lines:
        lines.insert(0, "partition fan-out:")
    return lines


def cluster_routing_lines(plan, shard_map) -> list[str]:
    """EXPLAIN annotation: how a plan routes across a sharded cluster.

    ``shard_map`` is a :class:`repro.cluster.shardmap.ShardMap` (topology
    data only — endpoints and partition spans). The annotation reports what
    the routing tier knows: which shards a statement visits and why. It
    never mentions filter values — those are ciphertext by the time a plan
    exists.
    """
    from repro.sql.planner import (
        DeletePlan,
        JoinSelectPlan,
        MergePlan,
        SelectPlan,
    )

    if shard_map is None:
        return []
    tables: list[str] = []
    if isinstance(plan, (SelectPlan, DeletePlan, MergePlan)):
        tables = [plan.table]
    elif isinstance(plan, JoinSelectPlan):
        tables = [plan.left_table, plan.right_table]
    if not tables:
        return []
    lines = [f"cluster routing ({shard_map.shard_count} shard(s)):"]
    for table_name in tables:
        assignment = shard_map.assignment(table_name)
        if assignment is None:
            shard = shard_map.shards[0]
            lines.append(
                f"  {table_name}: unassigned -> shard 0 "
                f"({shard.primary.address}"
                + (
                    f", {len(shard.replicas)} replica(s))"
                    if shard.replicas
                    else ")"
                )
            )
            continue
        spans = assignment.populated_spans()
        lines.append(
            f"  {table_name}: scatter over {len(spans)} shard(s), "
            f"{assignment.partition_count} partition(s); delta on shard "
            f"{assignment.last_span().shard_id}"
        )
        for span in spans:
            shard = shard_map.shards[span.shard_id]
            lines.append(
                f"    shard {span.shard_id}: partitions "
                f"[{span.partition_lo},{span.partition_hi}) rows "
                f"[{span.row_base},{span.row_base + span.row_count}) via "
                f"{shard.primary.address}"
                + (
                    f" (+{len(shard.replicas)} replica(s))"
                    if shard.replicas
                    else ""
                )
            )
    if isinstance(plan, SelectPlan):
        lines.append(
            "  gather: per-shard padded unions concatenate in partition "
            "order; RecordIDs rebase by span row base"
        )
    return lines


def pushdown_lines(decisions) -> list[str]:
    """EXPLAIN annotation: per-clause analytics-pushdown routing (PR 9).

    ``decisions`` is the :class:`~repro.sql.result.RoutingDecision` tuple an
    ``explain_pushdown`` hook returned. Each line names the clause, where it
    runs (enclave or proxy), and why — including the cost-model estimate or
    the structural reason a clause fell back to proxy-side evaluation.
    """
    lines: list[str] = []
    for decision in decisions or ():
        where = "enclave" if decision.pushed else "proxy"
        lines.append(f"  {decision.clause} -> {where}: {decision.reason}")
    if lines:
        lines.insert(0, "pushdown:")
    return lines


def migration_lines(statuses) -> list[str]:
    """EXPLAIN annotation: online rotations in flight on the plan's tables.

    ``statuses`` is the :class:`~repro.migrate.plan.MigrationStatus` list an
    ``explain_migrations`` hook returned. Reports progress metadata only —
    phase, step counts, and which version each partition currently serves —
    all of which the provider observes anyway (§4.1 layout leakage).
    """
    lines: list[str] = []
    for status in statuses or ():
        target = (
            f"{status.old_kind}->{status.new_kind}"
            if status.new_kind != status.old_kind
            else status.new_kind
        )
        if status.new_key_epoch != status.old_key_epoch:
            target += (
                f" key epoch {status.old_key_epoch}->{status.new_key_epoch}"
            )
        lines.append(
            f"migration: {status.table}.{status.column} {target} "
            f"phase={status.phase} [{status.steps_done}/{status.steps_total} "
            f"steps] ({status.state})"
        )
        if status.partition_versions:
            serving = ",".join(status.partition_versions)
            lines.append(f"  partitions serve: {serving}")
    return lines
