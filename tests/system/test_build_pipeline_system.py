"""End-to-end acceptance of the streaming build and the one load path.

An in-process deployment (partitions stream into the column store as they
are built) and a TCP deployment (the stub collects the stream into the one
``bulk_load`` payload the wire ships) of the same owner seed must be
indistinguishable at every observable layer: identical storage-v2 bytes on
disk, identical per-partition frames, identical query answers for all nine
ED kinds. The streamed path must keep build-side transient memory
O(partition), and every load route applies the same checks.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import EncDBDBSystem
from repro.client.owner import DataOwner
from repro.client.proxy import Proxy
from repro.columnstore.storage import encrypted_partition_frame
from repro.columnstore.types import ColumnSpec, parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.options import kind_by_name
from repro.encdict.pipeline import ColumnPlan, PartitionBuild, build_partitions
from repro.exceptions import CatalogError
from repro.net import NetServer, ServerThread
from repro.net.client import NetConnection, RemoteServer
from repro.server.dbms import EncDBDBServer
from repro.sql.parser import parse
from repro.sql.planner import CreatePlan, SelectPlan

KINDS = [f"ED{i}" for i in range(1, 10)]
ROWS = 60
PARTITION_ROWS = 16
VALUES = [((i * 7) % 13) + 1 for i in range(ROWS)]
TRANSPORTS = ["inproc", "tcp"]


def _system(server) -> EncDBDBSystem:
    """A provisioned deployment on ``server`` whose owner and proxy draw
    from the same seed whatever the transport."""
    rng = HmacDrbg(b"one-load-path")
    owner = DataOwner(rng=rng.fork("owner"))
    owner.attest_and_provision(server)
    proxy = Proxy(server, owner.master_key, default_pae(rng=rng.fork("proxy")))
    return EncDBDBSystem(server, owner, proxy)


@pytest.fixture
def transport(request):
    """``(system, dbms)`` for one transport: ``dbms`` is the server-side
    :class:`EncDBDBServer`, reached directly for white-box assertions."""
    if request.param == "inproc":
        dbms = EncDBDBServer()
        yield _system(dbms), dbms
        return
    with ServerThread(NetServer(max_sessions=4)) as handle:
        with _system(
            RemoteServer(NetConnection("127.0.0.1", handle.port))
        ) as system:
            yield system, handle.server.dbms


def _deploy(system: EncDBDBSystem) -> None:
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs}, plain INTEGER)")
    columns = {f"c{i}": list(VALUES) for i in range(1, 10)}
    columns["plain"] = list(range(ROWS))
    assert system.bulk_load("t", columns, partition_rows=PARTITION_ROWS) == ROWS


@pytest.fixture(scope="module")
def deployments():
    """``{transport: (system, server-side dbms)}`` of the same seed."""
    inproc = EncDBDBServer()
    with ServerThread(NetServer(max_sessions=4)) as handle:
        remote = RemoteServer(NetConnection("127.0.0.1", handle.port))
        systems = {
            "inproc": (_system(inproc), inproc),
            "tcp": (_system(remote), handle.server.dbms),
        }
        try:
            for system, _dbms in systems.values():
                _deploy(system)
            yield systems
        finally:
            remote.close()


def _record_ids(system, sql):
    plan = system.proxy._planner.plan(parse(sql))
    encrypted = SelectPlan(
        plan.table,
        plan.needed_columns,
        system.proxy._encrypt_filter(plan.table, plan.filter),
        plan.post,
    )
    return {int(rid) for rid in system.server.execute_select(encrypted).record_ids}


def test_storage_files_are_byte_identical(tmp_path, deployments):
    stored = {}
    for name, (system, _dbms) in deployments.items():
        path = tmp_path / f"{name}.encdbdb"
        system.save(path)
        stored[name] = path.read_bytes()
    assert stored["inproc"] == stored["tcp"]


def test_partition_frames_and_stats_are_identical(deployments):
    streamed = deployments["inproc"][1].catalog.table("t")
    collected = deployments["tcp"][1].catalog.table("t")
    assert streamed.partition_rows == collected.partition_rows == PARTITION_ROWS
    for index, kind in enumerate(KINDS, 1):
        want = streamed.columns[f"c{index}"]
        got = collected.columns[f"c{index}"]
        assert want.partition_ids == got.partition_ids
        for a, b, partition_id in zip(
            want.partition_builds, got.partition_builds, want.partition_ids
        ):
            assert encrypted_partition_frame(
                a, partition_id
            ) == encrypted_partition_frame(b, partition_id), kind
            # The wire strips the owner-side secrets from BuildStats
            # (unique_values, bsmax, rnd_offset); what crosses is identical.
            for field in ("kind", "column_length", "dictionary_entries"):
                assert getattr(a.stats, field) == getattr(b.stats, field), kind


def test_all_kinds_answer_identically_across_transports(deployments):
    for low, high in [(1, 4), (5, 9), (7, 13), (2, 2)]:
        truth = {rid for rid, v in enumerate(VALUES) if low <= v <= high}
        for index, kind in enumerate(KINDS, 1):
            sql = f"SELECT c{index} FROM t WHERE c{index} BETWEEN {low} AND {high}"
            for name, (system, _dbms) in deployments.items():
                assert _record_ids(system, sql) == truth, (name, kind)


def test_streamed_load_matches_collected_bulk_load():
    """bulk_load_stream installs exactly what bulk_load would."""

    def build(streamed: bool) -> EncDBDBSystem:
        system = EncDBDBSystem.create(seed=11)
        system.execute("CREATE TABLE s (k ED5 INTEGER, plain INTEGER)")
        columns = {"k": list(VALUES), "plain": list(range(ROWS))}
        plans = system.owner.build_plans(system.server, "s", columns)
        partitions = build_partitions(
            "s", plans, partition_rows=PARTITION_ROWS, pae=system.owner.pae
        )
        if streamed:
            system.server.bulk_load_stream("s", partitions)
        else:
            collected = list(partitions)
            system.server.bulk_load(
                "s",
                plain_columns={
                    "plain": [v for part in collected for v in part.plain_values["plain"]]
                },
                encrypted_builds={"k": [part.builds["k"] for part in collected]},
            )
        return system

    streamed, collected = build(True), build(False)
    streamed_column = streamed.server.catalog.table("s").columns["k"]
    collected_column = collected.server.catalog.table("s").columns["k"]
    assert streamed_column.partition_ids == collected_column.partition_ids
    for a, b, pid in zip(
        streamed_column.partition_builds,
        collected_column.partition_builds,
        streamed_column.partition_ids,
    ):
        assert encrypted_partition_frame(a, pid) == encrypted_partition_frame(b, pid)
    sql = "SELECT k FROM s WHERE k BETWEEN 3 AND 9"
    assert _record_ids(streamed, sql) == _record_ids(collected, sql)
    assert streamed.server.catalog.table("s").partition_rows == PARTITION_ROWS
    assert collected.server.catalog.table("s").partition_rows == PARTITION_ROWS


def test_bulk_load_stream_rejects_bad_streams():
    server = EncDBDBServer()
    server.create_table(
        CreatePlan(
            "u",
            [ColumnSpec("k", parse_type("INTEGER"), protection=kind_by_name("ED3"))],
        )
    )
    with pytest.raises(CatalogError, match="exactly the columns"):
        server.bulk_load_stream(
            "u", iter([PartitionBuild(index=0, row_count=2, plain_values={"x": [1, 2]})])
        )
    assert server.catalog.table("u").row_count == 0


@pytest.mark.parametrize("transport", TRANSPORTS, indirect=True)
def test_empty_partitioned_load_is_a_no_op(transport):
    """Regression: an empty partitioned load returned 0 over TCP and raised
    ``bulk load stream produced no partitions`` in-process."""
    system, dbms = transport
    system.execute("CREATE TABLE e (a ED1 INTEGER, b INTEGER)")
    assert system.bulk_load("e", {"a": [], "b": []}, partition_rows=4) == 0
    assert dbms.catalog.table("e").row_count == 0
    assert system.query("SELECT a, b FROM e WHERE a > 0").rows == []
    # Still loadable and queryable afterwards.
    assert system.bulk_load("e", {"a": [5, 6, 7], "b": [1, 2, 3]}, partition_rows=2) == 3
    assert sorted(system.query("SELECT b FROM e WHERE a >= 6").column("b")) == [2, 3]


@pytest.mark.parametrize("transport", TRANSPORTS, indirect=True)
@pytest.mark.parametrize("partition_rows", [None, 2], ids=["whole", "partitioned"])
@pytest.mark.parametrize(
    "schema",
    ["n INTEGER, m INTEGER", "n INTEGER, m ED1 INTEGER"],
    ids=["plain-only", "mixed"],
)
def test_plaintext_values_are_type_checked_on_every_load_route(
    schema, partition_rows, transport
):
    """Regression: a ``str`` slipped into a plaintext INTEGER column on three
    of the four load routes (only plain-only x unpartitioned checked)."""
    system, dbms = transport
    system.execute(f"CREATE TABLE c ({schema})")
    with pytest.raises(CatalogError, match="INTEGER column cannot store 'x'"):
        system.bulk_load(
            "c", {"n": [1, "x", 3], "m": [4, 5, 6]}, partition_rows=partition_rows
        )
    assert dbms.catalog.table("c").row_count == 0


def test_streamed_build_memory_is_bounded_by_partition_size():
    """Instrumented acceptance check: peak transient memory of a streamed
    build is O(partition), far below a whole-table materialization."""
    rows = 60_000
    kind = kind_by_name("ED1")
    spec = ColumnSpec("c", parse_type("INTEGER"), protection=kind, bsmax=4)
    key = b"\x05" * 16

    def peak(partition_rows: int) -> int:
        def source():
            for i in range(rows):
                yield 10_000 + (i % 50)  # fresh (uncached) int objects

        pae = default_pae(rng=HmacDrbg(b"mem"))
        plans = {"c": ColumnPlan(spec, source(), key=key, rng=HmacDrbg(b"c"))}
        tracemalloc.start()
        consumed = 0
        for partition in build_partitions(
            "t", plans, partition_rows=partition_rows, pae=pae
        ):
            consumed += partition.row_count  # discard: storage is downstream
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == rows
        return peak_bytes

    streamed = peak(2_000)  # 30 partitions, one resident at a time
    whole_table = peak(rows)  # one partition == materialize everything
    assert streamed * 3 < whole_table, (streamed, whole_table)
