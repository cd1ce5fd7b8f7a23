"""The wire surface of one EncDBDB deployment, written down once, as data.

Every operation a remote proxy / data owner may invoke on an
:class:`~repro.server.dbms.EncDBDBServer` is one :class:`Verb` line in
:data:`VERBS`. Everything that used to be a hand-maintained copy of this
list is *derived* from it:

- :class:`~repro.net.server.NetServer` dispatches a ``QUERY`` frame only to
  a name in the table and takes its lock discipline from ``verb.lock`` —
  the wire cannot reach arbitrary attributes of the DBMS;
- :class:`~repro.net.client.RemoteServer` gets one pass-through stub per
  verb installed at class creation;
- :class:`~repro.cluster.router.ClusterRouter` gets every verb whose
  ``route`` names a fan-out policy from one generic routing function (only
  ``custom`` verbs carry a hand-written merge);
- :data:`repro.analysis.leakage.VERB_CONTRACTS` is a comprehension over the
  table, so a verb cannot exist without stating what the provider observes.

Adding a verb is one ``EncDBDBServer`` method plus one line here (plus a
router method only when ``route`` is ``custom``).

This module is pure data: no imports from the rest of ``repro``, no key or
plaintext symbol, importable from every trust level — and, because the
package ``__init__`` resolves its re-exports lazily, without loading the
socket/DBMS stack (the static analyzer reads it with the stdlib alone).
"""

from __future__ import annotations

from dataclasses import dataclass

# -- lock discipline on the server (NetServer._dispatch_query) -------------
#: Runs under the server's ecall lock: boundary crossings of concurrent
#: sessions never interleave, so the paper's cost accounting (one ecall per
#: query, exact decryption counts) stays meaningful.
ECALL = "ecall"
#: Runs on a worker thread *without* the ecall lock. Bulk imports perform no
#: enclave calls at all (the owner ships finished ciphertext), so a long
#: load cannot starve concurrent queries. Migration verbs DO cross the
#: boundary but stay off the lock too: a ``migrate_run`` holding it would
#: stall every query for the whole backfill. Their correctness comes from
#: the enclave's boundary lock and the column's shadow lock, so a concurrent
#: query waits at most one partition-sized critical section.
FREE = "free"

# -- cluster routing policy (ClusterRouter._route) --------------------------
#: Ask shard 0 (first endpoint that answers): schema facts all shards share.
FIRST_SHARD = "first-shard"
#: The shard holding the table's tail, every reachable replica: inserts keep
#: delta RecordIDs globally contiguous.
TAIL_BROADCAST = "tail-broadcast"
#: Every shard, every reachable replica (DDL).
EVERY_SHARD = "every-shard"
#: Every populated shard of the table, every reachable replica; the per-shard
#: counts add up.
SHARDS_SUM = "shards-sum"
#: Every replica of every populated shard, and *all* must answer: a replica
#: that silently missed a rotation would diverge, not lag.
REPLICAS_STRICT = "replicas-strict"
#: Every replica of every populated shard that answers — observing is not
#: mutating, so dead replicas are skipped.
REPLICAS_REACHABLE = "replicas-reachable"
#: The router hand-writes this verb because it needs a real merge function.
CUSTOM = "custom"
#: Not part of the router surface (session-bound enclave plumbing, or
#: reached only through another router method).
UNROUTED = "unrouted"

LOCKS = frozenset({ECALL, FREE})
ROUTES = frozenset(
    {FIRST_SHARD, TAIL_BROADCAST, EVERY_SHARD, SHARDS_SUM}
    | {REPLICAS_STRICT, REPLICAS_REACHABLE, CUSTOM, UNROUTED}
)


@dataclass(frozen=True)
class Verb:
    """One wire operation: its name is the ``EncDBDBServer`` method.

    ``observables`` is the verb's leakage contract (DESIGN.md §15): prose
    stating the provider-visible facts the response legitimately reveals —
    sizes, counts, ordinal positions, never values. ``shaping`` names
    helpers the server module must reference for this verb beyond the
    error-frame redaction all verbs share. A verb without observables, or
    with an unknown lock or route, cannot be constructed.
    """

    name: str
    lock: str
    route: str
    observables: str
    shaping: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lock not in LOCKS:
            raise ValueError(f"verb {self.name!r}: unknown lock {self.lock!r}")
        if self.route not in ROUTES:
            raise ValueError(f"verb {self.name!r}: unknown route {self.route!r}")
        if not self.observables.strip():
            raise ValueError(
                f"verb {self.name!r} must declare what the provider observes"
            )


_MIGRATION_FRAME = "typed MigrationStatus progress frame"

#: A rendered row result. Each encrypted column ships its distinct
#: referenced dictionary entries plus one entry index per row — a bijective
#: re-encoding of the per-row blobs (entries are deduplicated by
#: (partition, ValueID) and every entry's blob is unique), so the distinct
#: count per column is the one figure the frame states outright.
_ROW_FRAME = (
    "result frame byte size; row count; per encrypted column the count of "
    "distinct referenced dictionary entries (partition, ValueID) and one "
    "entry index per row"
)

#: The whole RPC surface, by name. Everything else is rejected on the wire.
VERBS: dict[str, Verb] = {
    verb.name: verb
    for verb in (
        # DDL / import (paper §4.2 steps 3-4)
        Verb("create_table", ECALL, EVERY_SHARD, "schema shape (names, kinds, widths)"),
        Verb("bulk_load", FREE, UNROUTED, "ciphertext partition sizes and counts"),
        # Query execution
        Verb("execute_select", ECALL, CUSTOM, _ROW_FRAME),
        Verb(
            "execute_select_pushdown",
            ECALL,
            CUSTOM,
            "padded group-frame count and uniform frame size (see aggregate_groups); "
            "row shipping and ORDER BY pushdown as execute_select: " + _ROW_FRAME,
        ),
        Verb(
            "explain_pushdown",
            ECALL,
            CUSTOM,
            "plan routing text — operator names and cost classes only, never values",
        ),
        Verb("execute_join_select", ECALL, CUSTOM, "joined " + _ROW_FRAME),
        Verb("execute_insert", ECALL, TAIL_BROADCAST, "one ack; delta append count"),
        Verb("execute_delete", ECALL, SHARDS_SUM, "deleted-row count"),
        Verb("delete_record_ids", ECALL, CUSTOM, "deleted-row count"),
        Verb("execute_merge", ECALL, SHARDS_SUM, "merged partition count"),
        # Introspection / persistence (server-side paths)
        Verb("save", ECALL, CUSTOM, "snapshot byte size on the server disk"),
        Verb("table_names", ECALL, FIRST_SHARD, "table name list (schema is not protected)"),
        Verb("table_specs", ECALL, FIRST_SHARD, "schema shape per table"),
        Verb("cost_snapshot", ECALL, CUSTOM, "aggregate ecall/decrypt counters"),
        # Enclave key plumbing (sealed restarts, cluster key replication)
        Verb("enclave_seal", ECALL, UNROUTED, "one fixed-size sealed blob"),
        Verb("enclave_restore", ECALL, UNROUTED, "one ack"),
        Verb(
            "enclave_replicate_key",
            ECALL,
            UNROUTED,
            "one DH public value + one fixed-size PAE blob (relay-opaque)",
        ),
        Verb("enclave_is_provisioned", ECALL, UNROUTED, "one boolean"),
        # Online rotation (repro.migrate)
        Verb("migrate_start", FREE, REPLICAS_STRICT, _MIGRATION_FRAME),
        Verb("migrate_step", FREE, REPLICAS_STRICT, _MIGRATION_FRAME),
        Verb("migrate_run", FREE, REPLICAS_STRICT, _MIGRATION_FRAME),
        Verb("migrate_status", FREE, REPLICAS_REACHABLE, _MIGRATION_FRAME),
        Verb("migrate_rollback", FREE, REPLICAS_STRICT, _MIGRATION_FRAME),
    )
}
