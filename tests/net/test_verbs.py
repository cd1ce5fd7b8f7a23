"""Surface conformance: one verb table, every derived surface agrees.

``repro.net.verbs.VERBS`` is the only per-verb registry; the RPC
dispatcher, the ``RemoteServer`` stubs, the cluster router's fan-out and the
wire leakage contracts are derived from it. These checks are parametrised
over the table, so a new verb line is covered the moment it is written.
"""

from __future__ import annotations

import pytest

from repro.analysis.leakage import VERB_CONTRACTS
from repro.client.session import EncDBDBSystem
from repro.cluster.router import ClusterRouter
from repro.exceptions import ProtocolError
from repro.net.client import NetConnection, RemoteServer
from repro.net.protocol import FrameType, decode_payload
from repro.net.verbs import CUSTOM, ECALL, FREE, UNROUTED, VERBS, Verb
from repro.server.dbms import EncDBDBServer

ALL_VERBS = sorted(VERBS)


# ----------------------------------------------------------------------
# The table itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_VERBS)
def test_verb_is_on_every_surface(name):
    verb = VERBS[name]
    assert verb.name == name and not name.startswith("_")
    assert callable(getattr(EncDBDBServer, name))
    assert callable(getattr(RemoteServer, name))
    if verb.route == UNROUTED:
        assert not hasattr(ClusterRouter, name)
    else:
        method = getattr(ClusterRouter, name)
        assert callable(method)
        # Only verbs with a real merge function are written out by hand —
        # plus ``migrate_status``, which runs its declared route once per
        # table when none is named.
        derived = verb.route != CUSTOM and name != "migrate_status"
        assert (getattr(method, "verb", None) is verb) == derived


@pytest.mark.parametrize("name", ALL_VERBS)
def test_verb_carries_its_leakage_contract(name):
    verb = VERBS[name]
    assert verb.observables.strip()
    contract = VERB_CONTRACTS[name]
    assert (contract.name, contract.kind) == (name, "verb")
    assert contract.observables == verb.observables
    assert contract.shaping == verb.shaping


def test_contracts_are_exactly_the_table():
    assert list(VERB_CONTRACTS) == list(VERBS)


def test_exactly_bulk_load_and_migrations_run_off_the_ecall_lock():
    free = {name for name, verb in VERBS.items() if verb.lock == FREE}
    assert free == {"bulk_load"} | {n for n in VERBS if n.startswith("migrate_")}
    # Everything else touching the enclave stays serialized.
    assert all(VERBS[n].lock == ECALL for n in set(VERBS) - free)


@pytest.mark.parametrize(
    "fields",
    [
        {"observables": "  "},
        {"lock": "spin"},
        {"route": "anycast"},
    ],
)
def test_an_undeclared_verb_is_unconstructible(fields):
    spec = {"name": "x", "lock": ECALL, "route": CUSTOM, "observables": "one ack"}
    Verb(**spec)
    with pytest.raises(ValueError):
        Verb(**{**spec, **fields})
    with pytest.raises(TypeError):
        Verb("x", ECALL, CUSTOM)  # no contract at all


def test_migrate_verbs_need_every_replica_but_status_tolerates_dead_ones():
    routes = {n: VERBS[n].route for n in VERBS if n.startswith("migrate_")}
    assert routes.pop("migrate_status") == "replicas-reachable"
    assert set(routes.values()) == {"replicas-strict"}


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------


def test_unknown_method_is_rejected_on_the_wire(net_server):
    conn = NetConnection("127.0.0.1", net_server.port)
    try:
        for method in ("drop_table", "load", "executor", "__class__", 7, None):
            with pytest.raises(ProtocolError, match="unknown rpc method"):
                conn.request(
                    FrameType.QUERY, {"method": method, "args": [], "kwargs": {}}
                )
        assert conn.call("table_names") == []  # the session survives
    finally:
        conn.close()


def test_dispatcher_honours_a_wrapper_patched_onto_the_class(net_server, monkeypatch):
    """The benchmark's tracer and the load-concurrency test both patch
    ``EncDBDBServer`` after ``repro.net.server`` was imported; the
    dispatcher resolves the method per call, so the wrapper runs."""
    calls = []
    original = EncDBDBServer.table_names

    def traced(self):
        calls.append("table_names")
        return original(self)

    monkeypatch.setattr(EncDBDBServer, "table_names", traced)
    conn = NetConnection("127.0.0.1", net_server.port)
    try:
        assert conn.call("table_names") == []
    finally:
        conn.close()
    assert calls == ["table_names"]


# ----------------------------------------------------------------------
# The derived stub
# ----------------------------------------------------------------------


def _sniffed_queries(port):
    frames = []

    def tap(direction, frame_type, raw):
        if direction == "send" and frame_type is FrameType.QUERY:
            frames.append(decode_payload(raw))

    return RemoteServer(NetConnection("127.0.0.1", port, tap=tap)), frames


def test_wrong_arity_fails_locally_not_as_a_wire_error(net_server):
    server, frames = _sniffed_queries(net_server.port)
    try:
        with pytest.raises(TypeError):
            server.execute_select()
        with pytest.raises(TypeError):
            server.migrate_step("t")
        with pytest.raises(TypeError):
            server.table_names("extra")
        with pytest.raises(TypeError):
            server.migrate_start("t", "c", "ED2")  # new_kind is keyword-only
        assert frames == []  # nothing travelled
    finally:
        server.close()


def test_stub_encodes_calls_canonically(net_server):
    """Defaults are applied client-side and positional parameters travel
    positionally — the encoding the hand-written stubs used."""
    server, frames = _sniffed_queries(net_server.port)
    try:
        assert server.migrate_status() == []
        assert server.migrate_status(column_name="c", table_name=None) == []
        assert server.table_names() == []
    finally:
        server.close()
    assert frames == [
        {"method": "migrate_status", "args": [None, None], "kwargs": {}},
        {"method": "migrate_status", "args": [None, "c"], "kwargs": {}},
        {"method": "table_names", "args": [], "kwargs": {}},
    ]


def test_stub_answers_absent_for_anything_that_is_not_a_verb(net_server):
    server = RemoteServer(NetConnection("127.0.0.1", net_server.port))
    try:
        # Proxy probes the optional EXPLAIN hook with getattr().
        for name in ("explain_routing", "drop_table", "load"):
            assert getattr(server, name, None) is None
    finally:
        server.close()


def test_explain_over_tcp_shows_inflight_migration(net_server):
    """Regression: ``RemoteServer`` had no ``explain_migrations``, so a
    rotation in flight showed in EXPLAIN in-process and on a cluster but
    not against a single remote server."""
    with EncDBDBSystem.connect("127.0.0.1", net_server.port, seed=5) as system:
        system.execute("CREATE TABLE m (v ED1 INTEGER)")
        system.bulk_load("m", {"v": list(range(40))}, partition_rows=10)
        system.execute("CREATE TABLE other (v ED1 INTEGER)")
        sql = "SELECT v FROM m WHERE v < 5"
        assert "migration:" not in system.proxy.explain(sql)

        system.server.migrate_start("m", "v", new_kind="ED2")
        status = system.server.migrate_step("m", "v")
        assert status.active

        text = system.proxy.explain(sql)
        assert "migration: m.v ED1->ED2" in text
        assert f"[{status.steps_done}/{status.steps_total} steps]" in text
        assert "partitions serve:" in text
        # Only the plan's own table is annotated.
        assert "migration:" not in system.proxy.explain("SELECT v FROM other WHERE v < 5")

        system.server.migrate_rollback("m", "v")
        assert "migration:" not in system.proxy.explain(sql)
