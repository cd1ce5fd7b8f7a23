"""The one encrypted search path, at every size of its one setting.

``FastPathConfig.dictionary_cache_bytes`` decides what the enclave keeps
resident and nothing else: the executor crosses the boundary at most once
per filter plan — no search, no ecall; otherwise one ``dict_search`` that
carries every ``(dictionary, τ)`` request of the plan — whether the budget
is 0 (the paper's constant-memory enclave), too small for any packed array,
or the default.
"""

from __future__ import annotations

import pytest

from repro import EncDBDBSystem
from repro.exceptions import EnclaveMemoryError
from repro.sgx.cache import FastPathConfig

CACHE_SIZES = (0, 4096, FastPathConfig().dictionary_cache_bytes)
VALUES = [((i * 7) % 13) + 1 for i in range(48)]


def _deploy(cache_bytes, partition_rows=None, rows=VALUES):
    system = EncDBDBSystem.create(
        seed=18, fastpath=FastPathConfig(dictionary_cache_bytes=cache_bytes)
    )
    system.execute("CREATE TABLE t (n ED1 INTEGER, m ED3 INTEGER)")
    if rows:
        system.bulk_load(
            "t", {"n": list(rows), "m": list(rows)}, partition_rows=partition_rows
        )
    return system


def _search_ecalls(system, sql):
    """``(result, {ecall name: count})`` of every ecall one query made."""
    by_name = system.server.cost_model.ecalls_by_name
    before = dict(by_name)
    result = system.query(sql)
    made = {
        name: count - before.get(name, 0)
        for name, count in by_name.items()
        if count != before.get(name, 0)
    }
    return result, made


@pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
def test_one_search_is_one_dict_search(cache_bytes):
    system = _deploy(cache_bytes)  # 1 main partition, no delta
    result, made = _search_ecalls(system, "SELECT n FROM t WHERE n BETWEEN 3 AND 5")
    assert made == {"dict_search": 1}
    assert sorted(r[0] for r in result) == sorted(v for v in VALUES if 3 <= v <= 5)


@pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
@pytest.mark.parametrize(
    "partition_rows, sql, expected",
    [
        (None, "SELECT n FROM t WHERE n IN (1, 2, 3)", {1, 2, 3}),
        (6, "SELECT n FROM t WHERE n BETWEEN 3 AND 5", {3, 4, 5}),  # 8 partitions
        (None, "SELECT n FROM t WHERE n <= 5 AND m >= 3", {3, 4, 5}),
    ],
    ids=["in-3-members", "8-partitions", "two-columns"],
)
def test_several_searches_are_one_batch(cache_bytes, partition_rows, sql, expected):
    system = _deploy(cache_bytes, partition_rows)
    result, made = _search_ecalls(system, sql)
    assert made == {"dict_search": 1}
    assert sorted(r[0] for r in result) == sorted(v for v in VALUES if v in expected)


@pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
def test_filter_on_an_empty_table_makes_no_ecall(cache_bytes):
    system = _deploy(cache_bytes, rows=())
    before = system.server.cost_model.ecalls
    result = system.query("SELECT n FROM t WHERE n BETWEEN 3 AND 5 OR m = 4")
    assert list(result) == []
    assert system.server.cost_model.ecalls == before


def test_budget_sizes_through_system_create():
    """0 is the documented constant-memory setting (it used to crash server
    construction), a budget too small for any packed array still answers,
    and a negative budget is a typed error at the config, not deep inside."""
    rows = list(range(600))  # 600 distinct ED3 entries: > 4096 packed bytes
    sql = "SELECT COUNT(*) FROM t WHERE m BETWEEN 30 AND 59"

    paper = _deploy(0, rows=rows)
    assert paper.query(sql).scalar() == 30
    assert paper.server._enclave.entry_cache is None
    assert paper.server._enclave.epc.allocated_pages == 0

    tiny = _deploy(4096, rows=rows)
    assert tiny.query(sql).scalar() == 30
    assert tiny.query(sql).scalar() == 30
    stats = tiny.server._enclave.fastpath_stats()
    assert stats["rejected"] == 2  # the packed array is refused, cold and warm
    assert stats["peak_bytes"] <= 4096

    with pytest.raises(EnclaveMemoryError):
        EncDBDBSystem.create(
            seed=18, fastpath=FastPathConfig(dictionary_cache_bytes=-1)
        )
