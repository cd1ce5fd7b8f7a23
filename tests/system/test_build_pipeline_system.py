"""End-to-end acceptance of the parallel build pipeline (PR 4).

Inline (``max_workers=1``) and thread-pool (``max_workers=2``) deployments
of the same seed must be indistinguishable at every observable layer:
identical storage-v2 bytes on disk, identical per-partition frames,
identical query answers for all nine ED kinds — and the streamed path must
keep build-side transient memory O(partition).
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro.runtime as runtime
from repro import EncDBDBSystem
from repro.columnstore.storage import encrypted_partition_frame
from repro.columnstore.types import ColumnSpec, parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.options import kind_by_name
from repro.encdict.pipeline import BuildPipeline, ColumnPlan, shutdown_build_pools
from repro.exceptions import CatalogError
from repro.server.dbms import EncDBDBServer
from repro.sql.parser import parse
from repro.sql.planner import SelectPlan

KINDS = [f"ED{i}" for i in range(1, 10)]
ROWS = 60
PARTITION_ROWS = 16
VALUES = [((i * 7) % 13) + 1 for i in range(ROWS)]


def _deploy(max_workers: int) -> EncDBDBSystem:
    system = EncDBDBSystem.create(seed=4)
    specs = ", ".join(f"c{i} {kind} INTEGER" for i, kind in enumerate(KINDS, 1))
    system.execute(f"CREATE TABLE t ({specs}, plain INTEGER)")
    columns = {f"c{i}": list(VALUES) for i in range(1, 10)}
    columns["plain"] = list(range(ROWS))
    system.bulk_load(
        "t",
        columns,
        partition_rows=PARTITION_ROWS,
        max_workers=max_workers,
    )
    return system


@pytest.fixture(scope="module")
def deployments():
    # Pin the core count so the two-worker deployment really runs on the
    # build thread pool, whatever host the suite runs on.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "detected_cores", lambda: 2)
        runtime.reset_dispatch_stats()
        systems = {"serial": _deploy(1), "thread": _deploy(2)}
        log = runtime.dispatch_stats()["build-pipeline"]
        assert (log["serial"], log["parallel"]) == (1, 1)
    yield systems
    shutdown_build_pools()


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
    paths = {}
    for name, system in deployments.items():
        path = tmp_path / f"{name}.encdbdb"
        system.save(path)
        paths[name] = path.read_bytes()
    assert paths["serial"] == paths["thread"]


def test_partition_frames_and_stats_are_identical(deployments):
    serial = deployments["serial"].server.catalog.table("t")
    thread = deployments["thread"].server.catalog.table("t")
    for index, kind in enumerate(KINDS, 1):
        want = serial.columns[f"c{index}"]
        got = thread.columns[f"c{index}"]
        assert want.partition_ids == got.partition_ids
        for a, b, partition_id in zip(
            want.partition_builds, got.partition_builds, want.partition_ids
        ):
            assert encrypted_partition_frame(
                a, partition_id
            ) == encrypted_partition_frame(b, partition_id), kind
            assert a.stats == b.stats, kind


def test_all_kinds_answer_identically_across_executors(deployments):
    for low, high in [(1, 4), (5, 9), (7, 13), (2, 2)]:
        truth = {rid for rid, v in enumerate(VALUES) if low <= v <= high}
        for index, kind in enumerate(KINDS, 1):
            sql = f"SELECT c{index} FROM t WHERE c{index} BETWEEN {low} AND {high}"
            for name, system in deployments.items():
                assert _record_ids(system, sql) == truth, (name, kind)


def test_streamed_load_matches_collected_bulk_load():
    """bulk_load_stream installs exactly what bulk_load would."""

    def build(streamed: bool) -> EncDBDBSystem:
        system = EncDBDBSystem.create(seed=11)
        system.execute("CREATE TABLE s (k ED5 INTEGER, plain INTEGER)")
        columns = {"k": list(VALUES), "plain": list(range(ROWS))}
        if streamed:
            plans = system.owner.build_plans(system.server, "s", columns)
            pipeline = BuildPipeline(pae=system.owner.pae, max_workers=2)
            system.server.bulk_load_stream(
                "s",
                pipeline.build_stream("s", plans, partition_rows=PARTITION_ROWS),
            )
        else:
            plans = system.owner.build_plans(system.server, "s", columns)
            pipeline = BuildPipeline(pae=system.owner.pae, max_workers=2)
            encrypted, plain = pipeline.build_columns(
                "s", plans, partition_rows=PARTITION_ROWS
            )
            system.server.bulk_load(
                "s", plain_columns=plain, encrypted_builds=encrypted
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


def test_bulk_load_stream_rejects_bad_streams():
    server = EncDBDBServer()
    from repro.sql.planner import CreatePlan

    server.create_table(
        CreatePlan(
            "u",
            [ColumnSpec("k", parse_type("INTEGER"), protection=kind_by_name("ED3"))],
        )
    )
    with pytest.raises(CatalogError, match="no partitions"):
        server.bulk_load_stream("u", iter(()))

    from repro.encdict.pipeline import PartitionBuild

    with pytest.raises(CatalogError, match="exactly the columns"):
        server.bulk_load_stream(
            "u", iter([PartitionBuild(index=0, row_count=2, plain_values={"x": [1, 2]})])
        )


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
        pipeline = BuildPipeline(
            pae=pae, max_workers=2, max_inflight_partitions=2
        )
        plans = {"c": ColumnPlan(spec, source(), key=key, rng=HmacDrbg(b"c"))}
        tracemalloc.start()
        consumed = 0
        for partition in pipeline.build_stream(
            "t", plans, partition_rows=partition_rows
        ):
            consumed += partition.row_count  # discard: storage is downstream
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == rows
        return peak_bytes

    streamed = peak(2_000)  # 30 partitions, window of 2
    whole_table = peak(rows)  # one partition == materialize everything
    assert streamed * 3 < whole_table, (streamed, whole_table)
