"""Scatter-gather query routing across a sharded EncDBDB cluster.

:class:`ClusterRouter` duck-types the :class:`~repro.server.dbms.
EncDBDBServer` surface the trusted proxy calls, so the existing
:class:`~repro.client.proxy.Proxy` — plan encryption, result decryption,
post-processing — runs against a whole cluster unchanged. Routing only ever
sees what a single untrusted server would see anyway: encrypted plans in,
padded per-partition result unions out.

- **Scatter.** A SELECT on a sharded table fans the *same* encrypted plan
  out to one healthy endpoint of every populated shard, concurrently on
  the router's own executor. Each shard runs the ordinary
  ``EnclDictSearch`` over its resident partitions.
- **Gather.** Per-shard results are concatenated in shard order — which is
  global partition order by construction (contiguous spans) — and shard-
  local RecordIDs are rebased by the span's ``row_base``. The merged result
  is exactly the padded union a single node would produce, so the §6
  leakage argument carries over (DESIGN.md §12).
- **Failover.** Endpoints of one shard are replicas; a transport failure
  against one retries the call on the next, sticking to whichever endpoint
  last answered.
- **Writes.** Inserts go to the shard holding the table's tail (keeping
  delta RecordIDs globally contiguous) and are broadcast to all of its
  replicas; deletes/merges broadcast to every populated shard.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from repro.cluster.shardmap import Shard, ShardMap
from repro.exceptions import ClusterError, NetworkError, QueryError
from repro.net.client import (
    FrameTap,
    NetConnection,
    RemoteServer,
    RetryPolicy,
    VerbClient,
    collect_partition,
    install_verbs,
)
from repro.net.verbs import (
    EVERY_SHARD,
    FIRST_SHARD,
    REPLICAS_REACHABLE,
    REPLICAS_STRICT,
    SHARDS_SUM,
    TAIL_BROADCAST,
    VERBS,
)
from repro.sql.result import (
    AggregateFrames,
    PushdownSelectResult,
    ResultColumn,
    RoutingDecision,
    ServerResult,
)


#: Name prefix of a router's scatter threads (none outlive ``close()``).
SCATTER_THREAD_PREFIX = "cluster-scatter"

#: Which answers a :meth:`ShardGroup.fan_out` caller requires of a shard's
#: replicas (see that method).
ONE, SOME, ALL, REACHABLE = "one", "some", "all", "reachable"


class EndpointPool:
    """A bounded pool of client connections to one server endpoint.

    ``capacity`` is the admission control on the client side: at most that
    many connections (and therefore server sessions) exist per endpoint, and
    a caller needing one past capacity *blocks* until a lease frees up —
    backpressure instead of an unbounded connection storm. Connections are
    reused LIFO; a lease that ends in a transport error discards its
    connection instead of returning it.

    The pool also tracks endpoint **health**: a transport failure marks the
    endpoint down (and drops every idle socket — they share the dead
    server), and after ``probe_interval`` seconds the next :meth:`healthy`
    check re-probes with one fresh connection attempt. A restarted replica
    therefore rejoins the shard group's read rotation by itself, instead of
    staying parked behind a sticky preference forever.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        capacity: int = 8,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        tap: FrameTap | None = None,
        probe_interval: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.tap = tap
        self.probe_interval = probe_interval
        self._slots = threading.BoundedSemaphore(capacity)
        self._lock = threading.Lock()
        self._idle: list[RemoteServer] = []  # guarded-by: self._lock
        self._closed = False  # guarded-by: self._lock
        self._healthy = True  # guarded-by: self._lock
        self._next_probe = 0.0  # guarded-by: self._lock

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self, retry: RetryPolicy | None) -> RemoteServer:
        return RemoteServer(
            NetConnection(
                self.host,
                self.port,
                timeout=self.timeout,
                tap=self.tap,
                retry=retry,
            )
        )

    def _checkout(self) -> tuple[RemoteServer, bool]:
        """A pooled idle connection (``True``: reused) or a fresh one."""
        with self._lock:
            if self._closed:
                raise ClusterError(f"endpoint pool {self.address} is closed")
            if self._idle:
                return self._idle.pop(), True
        return self._connect(self.retry), False

    def _checkin(self, server: RemoteServer) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(server)
                return
        server.close()

    @contextmanager
    def lease(self):
        """One connection, held across every request issued inside the
        block (required by session-bound sequences like provisioning)."""
        with self._slots:
            server, _reused = self._checkout()
            try:
                yield server
            except NetworkError:
                # Transport state is unknown — do not reuse the socket, and
                # treat the endpoint as down until a probe says otherwise.
                server.close()
                self.mark_failed()
                raise
            except BaseException:
                self._checkin(server)  # typed server errors leave it usable
                raise
            else:
                self._checkin(server)
                with self._lock:
                    self._healthy = True

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One RPC on a pooled connection.

        A *reused* idle socket that fails gets one retry on a fresh
        connection before the endpoint is declared down: a restarted server
        leaves every pooled socket dead while the endpoint itself is fine,
        and without the retry the first write after a restart would be
        skipped as "replica stale" even though the replica is back.
        """
        with self._slots:
            server, reused = self._checkout()
            try:
                try:
                    value = getattr(server, method)(*args, **kwargs)
                except NetworkError:
                    if not reused:
                        raise
                    server.close()
                    server = self._connect(RetryPolicy.none())
                    value = getattr(server, method)(*args, **kwargs)
            except NetworkError:
                server.close()
                self.mark_failed()
                raise
            except BaseException:
                self._checkin(server)  # typed server errors leave it usable
                raise
            self._checkin(server)
            with self._lock:
                self._healthy = True
            return value

    # -- health (periodic re-probe; a restarted server rejoins) ----------
    def mark_failed(self) -> None:
        """Record a transport failure: down until a probe succeeds, and the
        idle sockets are dropped (they point at the dead server)."""
        with self._lock:
            self._healthy = False
            self._next_probe = time.monotonic() + self.probe_interval
            idle, self._idle = self._idle, []
        for server in idle:
            server.close()

    def healthy(self) -> bool:
        """Current health; re-probes at most once per ``probe_interval``."""
        with self._lock:
            if self._closed:
                return False
            if self._healthy:
                return True
            if time.monotonic() < self._next_probe:
                return False
        return self.probe()

    def probe(self) -> bool:
        """One fresh connection attempt (no retries, fails fast). Success
        marks the endpoint healthy and keeps the socket for reuse."""
        try:
            server = self._connect(RetryPolicy.none())
        except NetworkError:
            with self._lock:
                self._healthy = False
                self._next_probe = time.monotonic() + self.probe_interval
            return False
        with self._lock:
            self._healthy = True
            if not self._closed:
                self._idle.append(server)
                server = None
        if server is not None:
            server.close()
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for server in idle:
            server.close()


class ShardGroup:
    """One shard's endpoints (primary + replicas) with failover.

    Reads rotate round-robin over the endpoints the pools currently report
    healthy; endpoints that went down keep being probed on their pools'
    ``probe_interval`` and re-enter the rotation as soon as a probe
    succeeds — a restarted replica rejoins without operator action.
    Unhealthy endpoints are still *tried last* rather than skipped, so a
    shard whose every endpoint died fails loudly, not silently.
    """

    def __init__(self, shard: Shard, pools: list[EndpointPool]) -> None:
        self.shard = shard
        self.pools = pools
        self._rr = 0  # guarded-by: self._rr_lock
        self._rr_lock = threading.Lock()

    def _order(self) -> list[int]:
        with self._rr_lock:
            start = self._rr
            self._rr += 1
        healthy = [i for i, pool in enumerate(self.pools) if pool.healthy()]
        if not healthy:
            count = len(self.pools)
            return [(start + i) % count for i in range(count)]
        rotated = [
            healthy[(start + i) % len(healthy)] for i in range(len(healthy))
        ]
        return rotated + [i for i in range(len(self.pools)) if i not in healthy]

    def fan_out(self, need: str, method: str, *args: Any, **kwargs: Any) -> list:
        """Run one RPC on this shard's endpoints — the one loop every route
        goes through. ``need`` says which answers the caller requires:

        - :data:`ONE` — the first endpoint that answers, healthy ones first
          (reads).
        - :data:`SOME` — every endpoint; a replica that is down simply
          misses the write (it is stale, not inconsistent, and the topology
          treats it as failed), but at least one must answer.
        - :data:`ALL` — every endpoint, and an unreachable one aborts
          loudly (a replica silently missing a rotation would adopt a
          different schema than its peers: divergence, not staleness).
        - :data:`REACHABLE` — every endpoint that answers, possibly none
          (observing is not mutating).

        Only transport failures are tolerated — a typed server error
        (query, catalog, security) is an *answer* and propagates as-is, so
        replicas are never asked to re-run a semantically rejected request.
        """
        order = self._order() if need == ONE else range(len(self.pools))
        values: list = []
        failures: list[str] = []
        for index in order:
            pool = self.pools[index]
            try:
                values.append(pool.call(method, *args, **kwargs))
            except NetworkError as exc:
                if need == ALL:
                    raise ClusterError(
                        f"shard {self.shard.shard_id}: {method!r} needs every "
                        f"replica, but {pool.address} failed: {exc}"
                    ) from exc
                failures.append(f"{pool.address}: {exc}")
                continue
            if need == ONE:
                break
        if not values and need != REACHABLE:
            raise ClusterError(
                f"shard {self.shard.shard_id}: {method!r}: every endpoint "
                f"failed ({'; '.join(failures)})"
            )
        return values

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One read: the answer of the first endpoint that gives one."""
        return self.fan_out(ONE, method, *args, **kwargs)[0]

    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One replicated write: the first reachable endpoint's answer."""
        return self.fan_out(SOME, method, *args, **kwargs)[0]

    def close(self) -> None:
        for pool in self.pools:
            pool.close()


def _cluster_note(pushed: bool, reason: str) -> tuple[RoutingDecision]:
    """The router's own line in a pushdown routing report (EXPLAIN)."""
    return (RoutingDecision("cluster", pushed, reason),)


def _first(per_group: list[list]) -> Any:
    return per_group[0][0]


def _flatten(per_group: list[list]) -> list:
    """Per-endpoint answers in span order (endpoint order within a shard),
    so migration progress reads top-to-bottom as the data lays out."""
    flat: list = []
    for values in per_group:
        for value in values:
            flat.extend(value if isinstance(value, list) else [value])
    return flat


def _tail_shard(router: "ClusterRouter", table_name: str) -> list[ShardGroup]:
    """Writes land on the shard holding the table's tail, keeping delta
    RecordIDs globally contiguous."""
    assignment = router.shard_map.assignment(table_name)
    if assignment is None:
        return router.groups[:1]
    return [router.groups[assignment.last_span().shard_id]]


def _table_shards(router: "ClusterRouter", table_name: str) -> list[ShardGroup]:
    """Populated shard groups of ``table_name``, span-ordered."""
    return list(
        dict.fromkeys(group for _span, group in router._read_targets(table_name))
    )


class _Route(NamedTuple):
    """One routing policy, whole: where a verb goes and how answers merge."""

    groups: Callable[["ClusterRouter", Any], list[ShardGroup]]  # shards visited
    need: str  # answers required inside each group (ShardGroup.fan_out)
    gather: Callable[[list[list]], Any]  # per-group answer lists -> result


_ROUTES: dict[str, _Route] = {
    FIRST_SHARD: _Route(lambda router, _table: router.groups[:1], ONE, _first),
    TAIL_BROADCAST: _Route(_tail_shard, SOME, _first),
    EVERY_SHARD: _Route(lambda router, _table: router.groups, SOME, _first),
    SHARDS_SUM: _Route(_table_shards, SOME, lambda per_group: sum(v[0] for v in per_group)),
    REPLICAS_STRICT: _Route(_table_shards, ALL, _flatten),
    REPLICAS_REACHABLE: _Route(_table_shards, REACHABLE, _flatten),
}


class ClusterRouter(VerbClient):
    """The scatter-gather client of a replicated EncDBDB cluster.

    Verbs whose :class:`~repro.net.verbs.Verb` line names a fan-out policy
    are installed from the table and run through :meth:`_route`; the
    methods written out below are the ones that merge per-shard answers.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        capacity: int = 8,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        tap: FrameTap | None = None,
        probe_interval: float = 2.0,
    ) -> None:
        super().__init__()
        self.shard_map = shard_map
        self.groups = [
            ShardGroup(
                shard,
                [
                    EndpointPool(
                        endpoint.host,
                        endpoint.port,
                        capacity=capacity,
                        timeout=timeout,
                        retry=retry,
                        tap=tap,
                        probe_interval=probe_interval,
                    )
                    for endpoint in shard.endpoints
                ],
            )
            for shard in shard_map.shards
        ]
        # The one executor of the cluster layer: per-shard calls of a
        # multi-shard scatter overlap on it (they wait on sockets). It spawns
        # its threads on first use, so a single-shard router never has any.
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(2, 2 * shard_map.shard_count),
            thread_name_prefix=SCATTER_THREAD_PREFIX,
        )

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def group(self, shard_id: int) -> ShardGroup:
        return self.groups[shard_id]

    def _read_targets(self, table_name: str) -> list[tuple[Any, ShardGroup]]:
        """(span | None, group) pairs a read of ``table_name`` must visit.

        A table never deployed through the coordinator (DDL + inserts only)
        has no assignment; all of its rows live on shard 0 by convention.
        """
        assignment = self.shard_map.assignment(table_name)
        if assignment is None:
            return [(None, self.groups[0])]
        return [
            (span, self.groups[span.shard_id])
            for span in assignment.populated_spans()
        ]

    def _scatter(self, thunks: list[Callable[[], Any]]) -> list[Any]:
        """Run the per-shard thunks concurrently; propagate the first error."""
        if len(thunks) == 1:
            return [thunks[0]()]
        futures = [self._scatter_pool.submit(thunk) for thunk in thunks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    # ------------------------------------------------------------------
    # Every verb with a declared fan-out policy (repro.net.verbs)
    # ------------------------------------------------------------------
    def _route(self, name: str, args: tuple, kwargs: dict) -> Any:
        """Run verb ``name`` per its routing policy: pick the shard groups,
        fan out inside each (concurrently across groups), gather.

        Every routed verb leads with the table it addresses — by name, or
        as a plan on it (``table_names`` addresses none and visits shard 0).
        """
        route = _ROUTES[VERBS[name].route]
        subject = args[0] if args else None
        is_plan = subject is not None and not isinstance(subject, str)
        table_name = subject.table if is_plan else subject
        return route.gather(
            self._scatter(
                [
                    (lambda g=group: g.fan_out(route.need, name, *args, **kwargs))
                    for group in route.groups(self, table_name)
                ]
            )
        )

    def migrate_status(
        self, table_name: str | None = None, column_name: str | None = None
    ) -> list:
        """Routed like any ``replicas-reachable`` verb; no table = every table."""
        names = self.table_names() if table_name is None else [table_name]
        return [
            status
            for name in names
            for status in self._route("migrate_status", (name, column_name), {})
        ]

    # ------------------------------------------------------------------
    # Reads: scatter the plan, gather the padded unions
    # ------------------------------------------------------------------
    def _scatter_read(self, method: str, plan) -> tuple[list | None, list]:
        """Ask one healthy endpoint of every shard holding ``plan.table``;
        returns ``(spans, answers)`` in span order. ``spans`` is ``None``
        for an unassigned table: shard 0 answers alone, nothing to merge."""
        targets = self._read_targets(plan.table)
        answers = self._scatter(
            [
                (lambda group=group: group.call(method, plan))
                for _span, group in targets
            ]
        )
        spans = [span for span, _group in targets]
        return (None if spans == [None] else spans), answers

    def execute_select(self, plan) -> ServerResult:
        spans, results = self._scatter_read("execute_select", plan)
        if spans is None:
            return results[0]
        return self._merge_results(plan.table, spans, results)

    def execute_select_pushdown(self, plan) -> PushdownSelectResult:
        """Scatter a routed SELECT; merge pushed-down partial aggregates.

        Aggregate states are associative (COUNT/SUM add, MIN/MAX fold, AVG
        is a sum+count pair), so when every shard answers with group frames
        the router simply concatenates them in span order — the proxy's
        frame merge folds same-group partials exactly as it folds a single
        node's per-partition frames. When every shard ships rows, the
        ordinary padded-union gather applies (a per-shard ORDER BY top-K
        union is a superset of the global top-K; the proxy re-sorts and
        re-limits). Only when shards *disagree* — per-shard cost gates can
        route the same plan differently — is the plan re-issued as plain
        row shipping, recorded as a ``cluster: pushdown-fallback`` routing
        decision instead of a refusal.
        """
        spans, results = self._scatter_read("execute_select_pushdown", plan)
        if spans is None:
            return results[0]
        have_frames = [result.aggregate is not None for result in results]
        if all(have_frames):
            first = results[0].aggregate
            for result in results[1:]:
                if (
                    result.aggregate.group_column != first.group_column
                    or result.aggregate.labels != first.labels
                ):
                    raise ClusterError(
                        f"table {plan.table!r}: shards answered with "
                        "mismatched aggregate frame layouts"
                    )
            frames = tuple(
                frame for result in results for frame in result.aggregate.frames
            )
            merged = AggregateFrames(
                first.table_name, first.group_column, first.labels, frames
            )
            decisions = results[0].decisions + _cluster_note(
                True,
                f"scatter over {len(results)} shard(s): partial "
                "aggregate frames merge at the proxy",
            )
            return PushdownSelectResult(decisions, aggregate=merged)
        if not any(have_frames):
            merged_rows = self._merge_results(
                plan.table, spans, [result.rows for result in results]
            )
            # Per-shard ordering does not survive concatenation; the proxy
            # re-sorts the union, so the merged result is unordered.
            return PushdownSelectResult(results[0].decisions, rows=merged_rows)
        _, plain = self._scatter_read("execute_select", plan)
        merged_rows = self._merge_results(plan.table, spans, plain)
        decisions = tuple(
            RoutingDecision(decision.clause, False, decision.reason)
            for decision in results[0].decisions
        ) + _cluster_note(
            False,
            "pushdown-fallback: shard cost gates disagreed; re-issued as row shipping",
        )
        return PushdownSelectResult(decisions, rows=merged_rows)

    def explain_pushdown(self, plan) -> tuple:
        """EXPLAIN hook: per-clause pushdown routing, cluster-wide.

        Shard 0's decisions stand in for the cluster (all shards see the
        same plan); a trailing ``cluster`` decision reports the gather —
        or, when the shards' static routing disagrees, the row-shipping
        fallback execution would take.
        """
        if getattr(plan, "table", None) is None:
            return self.group(0).call("explain_pushdown", plan)
        _, per_shard = self._scatter_read("explain_pushdown", plan)
        decisions = per_shard[0]
        if len(per_shard) == 1:
            return decisions
        shapes = {
            tuple((decision.clause, decision.pushed) for decision in shard)
            for shard in per_shard
        }
        if len(shapes) > 1:
            return decisions + _cluster_note(
                False,
                f"pushdown-fallback: {len(per_shard)} shard(s) route "
                "this plan differently; execution re-issues row shipping",
            )
        if any(decision.pushed for decision in decisions):
            return decisions + _cluster_note(
                True,
                f"scatter over {len(per_shard)} shard(s): partial "
                "results merge at the proxy",
            )
        return decisions

    def _merge_results(
        self, table_name: str, spans: list, results: list[ServerResult]
    ) -> ServerResult:
        """Union per-shard results exactly as a single node unions its
        per-partition results: concatenate in (shard =) partition order and
        rebase shard-local RecordIDs by the span's ``row_base``.

        An encrypted column's entry tables concatenate too, each shard's
        row index offset by the entries shipped before it — the same
        re-encoding a single node applies across its partitions."""
        record_ids: list[np.ndarray] = []
        columns: dict[str, ResultColumn] = {}
        for span, result in zip(spans, results):
            rebased = np.asarray(result.record_ids, dtype=np.int64)
            record_ids.append(rebased + span.row_base)
            for name, column in result.columns.items():
                merged = columns.get(name)
                if merged is None:
                    merged = columns[name] = ResultColumn(
                        column.table_name,
                        column.column_name,
                        column.encrypted,
                        [],
                        key_epoch=column.key_epoch,
                        index=np.empty(0, dtype=np.int32) if column.encrypted else None,
                    )
                elif column.key_epoch != merged.key_epoch:
                    # Shards rotate independently; a scatter that lands
                    # mid-flip on one shard would need per-span epochs.
                    # Refuse rather than hand the proxy undecryptable
                    # blobs under one stamped epoch.
                    raise ClusterError(
                        f"column {name!r}: shards answered with mixed "
                        "key epochs; retry after the rotation settles"
                    )
                if column.encrypted:
                    # Validate before offsetting: a shard's negative index
                    # must not turn into a valid one into another shard's
                    # entries.
                    index = column.row_index(result.row_count)
                    merged.index = np.concatenate(
                        [merged.index, index.astype(np.int32) + len(merged.data)]
                    )
                merged.data.extend(column.data)
        merged_ids = (
            np.concatenate(record_ids)
            if record_ids
            else np.empty(0, dtype=np.int64)
        )
        return ServerResult(table_name, merged_ids, columns)

    def execute_join_select(self, plan, salt: bytes) -> ServerResult:
        """Joins pass through only when both tables live on one shard.

        Cross-shard joins would need the proxy to match enclave-issued join
        tokens across shard results; that is future work and refused loudly
        rather than answered wrong.
        """
        shard_ids = set()
        for table_name in (plan.left_table, plan.right_table):
            for _span, group in self._read_targets(table_name):
                shard_ids.add(group.shard.shard_id)
        if len(shard_ids) > 1:
            raise QueryError(
                f"join of {plan.left_table!r} and {plan.right_table!r} "
                f"spans shards {sorted(shard_ids)}; cross-shard joins are "
                "not supported"
            )
        return self.group(shard_ids.pop()).call(
            "execute_join_select", plan, salt
        )

    # ------------------------------------------------------------------
    # Writes: route to the owning shard group, broadcast to its replicas
    # ------------------------------------------------------------------
    def delete_record_ids(self, table_name: str, record_ids) -> int:
        assignment = self.shard_map.assignment(table_name)
        if assignment is None:
            return self.groups[0].broadcast(
                "delete_record_ids", table_name, record_ids
            )
        by_shard: dict[int, list[int]] = {}
        for global_id in np.asarray(record_ids, dtype=np.int64):
            span = assignment.span_for_row(int(global_id))
            by_shard.setdefault(span.shard_id, []).append(
                int(global_id) - span.row_base
            )
        return sum(
            self.groups[shard_id].broadcast("delete_record_ids", table_name, local_ids)
            for shard_id, local_ids in by_shard.items()
        )

    # ------------------------------------------------------------------
    # Bulk import
    # ------------------------------------------------------------------
    def bulk_load_stream(self, table_name: str, partitions: Iterable) -> int:
        """Deploy a partition stream according to the table's assignment.

        Consumes :class:`~repro.encdict.pipeline.PartitionBuild` items in
        partition order, buffering only the current shard's span; when a
        span completes, its builds are shipped to every endpoint of that
        shard as one ``bulk_load`` (replicas receive byte-identical
        ciphertext — the build is deterministic and already done). Peak
        client memory is O(largest span), not O(table).
        """
        assignment = self.shard_map.assignment(table_name)
        if assignment is None:
            raise ClusterError(
                f"table {table_name!r} has no shard assignment; "
                "assign it on the shard map before deploying"
            )
        spans = list(assignment.populated_spans())
        span_index = 0
        builds: dict[str, list] = {}
        plains: dict[str, list] = {}
        total_rows = 0
        next_partition = 0
        for partition in partitions:
            if span_index >= len(spans):
                raise ClusterError(
                    f"table {table_name!r}: more partitions streamed than "
                    "assigned"
                )
            collect_partition(partition, plains, builds)
            next_partition += 1
            if next_partition == spans[span_index].partition_hi:
                total_rows += self.groups[spans[span_index].shard_id].broadcast(
                    "bulk_load",
                    table_name,
                    plain_columns=plains or None,
                    encrypted_builds=builds or None,
                )
                builds, plains = {}, {}
                span_index += 1
        if span_index != len(spans) or builds or plains:
            raise ClusterError(
                f"table {table_name!r}: partition stream ended before the "
                "assigned layout was covered"
            )
        return total_rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cost_snapshot(self) -> dict:
        """Aggregate enclave cost counters over every shard primary."""
        shard_snapshots = [
            group.call("cost_snapshot") for group in self.groups
        ]
        merged: dict[str, Any] = {}
        for snapshot in shard_snapshots:
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
                elif isinstance(value, dict):
                    bucket = merged.setdefault(key, {})
                    for name, count in value.items():
                        bucket[name] = bucket.get(name, 0) + count
        merged["shards"] = shard_snapshots
        return merged

    def save(self, path) -> None:
        raise ClusterError(
            "cluster-wide save is not supported; persist each shard through "
            "its own server"
        )

    # ------------------------------------------------------------------
    # EXPLAIN support (consumed by Proxy.explain via duck typing)
    # ------------------------------------------------------------------
    def explain_routing(self, plan) -> list[str]:
        from repro.sql.printer import cluster_routing_lines

        return cluster_routing_lines(plan, self.shard_map)

    def close(self) -> None:
        self._scatter_pool.shutdown(wait=True)
        for group in self.groups:
            group.close()


# ``custom`` verbs are the hand-written merges above; ``unrouted`` ones are
# deliberately absent (tests/net/test_verbs.py holds both statements).
install_verbs(
    ClusterRouter,
    (name for name, verb in VERBS.items() if verb.route in _ROUTES),
    ClusterRouter._route,
)
