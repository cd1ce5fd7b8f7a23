"""Queries and inserts keep flowing while a rotation runs on other threads.

The paper's promise carried over to rotations: readers wait at most one
partition-sized critical section. Reader threads hammer the query battery
and writer threads append delta rows while the migration thread steps the
plan; every observed result must be a consistent snapshot — exactly the
plaintext truth of the rows inserted so far, never a half-swapped mixture
that drops or duplicates rows.
"""

from __future__ import annotations

import threading
import time

from repro.client.session import EncDBDBSystem

ROWS = 64
VALUES = [(i * 7) % 23 for i in range(ROWS)]
PARTITION_ROWS = 16
LOW, HIGH = 5, 14


def test_rotation_under_concurrent_reads_and_inserts():
    system = EncDBDBSystem.create(seed=31)
    system.execute("CREATE TABLE t (v ED3 INTEGER, tag INTEGER)")
    system.bulk_load(
        "t",
        {"v": list(VALUES), "tag": list(range(ROWS))},
        partition_rows=PARTITION_ROWS,
    )
    base = {(i,) for i, v in enumerate(VALUES) if LOW <= v <= HIGH}

    inserted: list[int] = []  # tags of extra matching rows, append-only
    attempted: set = set()  # tags announced just before their INSERT runs
    insert_lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                # Snapshot the lower bound *before* the query: rows counted
                # here must all be visible in the result (inserts are
                # synchronous); rows added during the query may appear too.
                with insert_lock:
                    lower = len(inserted)
                got = {
                    row
                    for row in map(
                        tuple,
                        system.query(
                            f"SELECT tag FROM t WHERE v BETWEEN {LOW} AND {HIGH}"
                        ).rows,
                    )
                }
                # Upper bound: a row is visible from the moment its INSERT
                # executes, which may be before the writer records it in
                # ``inserted`` — so phantoms are judged against ``attempted``.
                with insert_lock:
                    upper = set(attempted)
                extra = got - base
                assert base <= got, f"lost main rows: {sorted(base - got)[:5]}"
                assert len(extra) >= lower, "lost delta rows"
                assert extra <= upper, "phantom rows"
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    def writer() -> None:
        try:
            tag = 10_000 + threading.get_ident() % 1000 * 1000
            while not stop.is_set():
                tag += 1
                with insert_lock:
                    attempted.add((tag,))
                system.execute(f"INSERT INTO t VALUES ({LOW}, {tag})")
                with insert_lock:
                    inserted.append((tag,))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)] + [
        threading.Thread(target=writer)
    ]
    for thread in threads:
        thread.start()
    try:
        system.server.migrate_start("t", "v", new_kind="ED9", rotate_key=True)
        status = system.server.migrate_status("t", "v")[0]
        while status.state == "running":
            status = system.server.migrate_step("t", "v")
        assert status.state == "done", status.error
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not errors, errors[0]
    assert all(not thread.is_alive() for thread in threads)

    # Final state: every row ever inserted is present exactly once.
    final = set(
        map(
            tuple,
            system.query(f"SELECT tag FROM t WHERE v BETWEEN {LOW} AND {HIGH}").rows,
        )
    )
    assert final == base | set(inserted)


def test_multi_row_insert_racing_a_key_flip_lands_under_one_epoch(monkeypatch):
    """An INSERT holds every encrypted column's rotation lock from its first
    crossing to its commit, so a key flip that arrives mid-statement waits:
    the statement's rows are re-sealed by the flip as a whole or not at all,
    never left behind under the old epoch."""
    system = EncDBDBSystem.create(seed=37)
    system.execute("CREATE TABLE t (u ED1 INTEGER, v ED3 INTEGER, tag INTEGER)")
    system.bulk_load(
        "t",
        {"u": list(VALUES), "v": list(VALUES), "tag": list(range(ROWS))},
        partition_rows=PARTITION_ROWS,
    )
    system.execute("INSERT INTO t VALUES (1, 1, 1000), (2, 2, 1001)")
    new_rows = 8
    statement = "INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i}, {2000 + i})" for i in range(new_rows)
    )

    host = system.server.enclave_host
    original = host.ecall
    reseals: list[tuple] = []  # (column, blobs, from_epoch, to_epoch)
    mid_statement = threading.Event()
    errors: list[BaseException] = []

    def traced(name, *args, **kwargs):
        if name == "reseal_delta":
            reseals.append(
                (args[1], len(args[2]), kwargs.get("from_epoch", 0), kwargs["to_epoch"])
            )
            if threading.current_thread() is inserter and args[1] == "v":
                # u's blobs are re-sealed (epoch 0) but not yet stored:
                # the window a flip of u must not get into.
                mid_statement.set()
                time.sleep(0.2)
        return original(name, *args, **kwargs)

    def insert() -> None:
        try:
            system.execute(statement)
        except BaseException as exc:
            errors.append(exc)

    monkeypatch.setattr(host, "ecall", traced)
    inserter = threading.Thread(target=insert)

    status = system.server.migrate_start("t", "u", rotate_key=True)
    while status.phase != "finalize":
        status = system.server.migrate_step("t", "u")
    inserter.start()
    assert mid_statement.wait(timeout=30)
    while status.state == "running":
        status = system.server.migrate_step("t", "u")
    inserter.join(timeout=30)
    assert not inserter.is_alive() and not errors, errors
    assert status.state == "done", status.error

    # The statement crossed under the old epoch and the flip, made to wait,
    # carried all of its rows over together with the two earlier ones.
    assert [call for call in reseals if call[0] == "u"] == [
        ("u", new_rows, 0, 0),
        ("u", 2 + new_rows, 0, 1),
    ]
    column = system.server.catalog.table("t").column("u")
    assert column.key_epoch == 1 and len(column.delta_blobs) == 2 + new_rows
    tags = {row[0] for row in system.query("SELECT tag FROM t WHERE u >= 0").rows}
    assert tags == set(range(ROWS)) | {1000, 1001} | {2000 + i for i in range(new_rows)}
