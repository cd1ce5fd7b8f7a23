"""Unit tests of the EPC-budgeted enclave LRU cache."""

from __future__ import annotations

import dataclasses
import inspect
import sys
import threading

import pytest

from repro.encdict.enclave_app import EncDBDBEnclave
from repro.exceptions import EnclaveMemoryError
from repro.sgx.cache import EnclaveLruCache, FastPathConfig
from repro.sgx.costs import CostModel
from repro.sgx.memory import EPC_USABLE_BYTES, PAGE_BYTES, EpcModel
from repro.sql.executor import Executor


def test_get_put_and_lru_order():
    cache = EnclaveLruCache(budget_bytes=100)
    assert cache.get("a") is None
    assert cache.put("a", 1, 40)
    assert cache.put("b", 2, 40)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
    assert cache.put("c", 3, 40)  # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_used_bytes_never_exceeds_budget():
    cache = EnclaveLruCache(budget_bytes=100)
    for i in range(50):
        cache.put(i, i, 30)
        assert cache.used_bytes <= cache.budget_bytes
    assert cache.stats.peak_bytes <= cache.budget_bytes
    assert len(cache) == 3  # 3 * 30 <= 100 < 4 * 30


def test_replacing_a_key_releases_its_bytes():
    cache = EnclaveLruCache(budget_bytes=100)
    cache.put("a", 1, 60)
    cache.put("a", 2, 30)
    assert cache.used_bytes == 30
    assert cache.get("a") == 2


def test_oversized_entry_rejected_without_wiping_cache():
    cache = EnclaveLruCache(budget_bytes=100)
    cache.put("a", 1, 50)
    assert not cache.put("huge", 2, 101)
    assert cache.get("a") == 1
    assert cache.get("huge") is None
    assert cache.stats.rejected == 1


def test_eviction_charges_cost_model_as_paging():
    cost = CostModel()
    cache = EnclaveLruCache(budget_bytes=100, cost_model=cost)
    cache.put("a", 1, 60)
    cache.put("b", 2, 60)  # evicts "a"
    assert cost.epc_page_faults == 1


def test_budget_charged_against_epc_model():
    cost = CostModel()
    epc = EpcModel(cost, strict=True)
    budget = 8 * PAGE_BYTES
    cache = EnclaveLruCache(budget_bytes=budget, cost_model=cost, epc=epc)
    assert epc.allocated_pages == 8
    assert cache.budget_bytes == budget


def test_budget_beyond_epc_fails_in_strict_mode():
    cost = CostModel()
    epc = EpcModel(cost, strict=True)
    with pytest.raises(EnclaveMemoryError):
        EnclaveLruCache(
            budget_bytes=EPC_USABLE_BYTES + PAGE_BYTES,
            cost_model=cost,
            epc=epc,
        )


def test_invalidate_by_predicate():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t1", "c1", 0, b"x"), 1, 10)
    cache.put(("t1", "c2", 0, b"y"), 2, 10)
    cache.put(("t2", "c1", 0, b"z"), 3, 10)
    dropped = cache.invalidate(lambda key: key[0] == "t1")
    assert dropped == 2
    assert cache.get(("t1", "c1", 0, b"x")) is None
    assert cache.get(("t2", "c1", 0, b"z")) == 3
    assert cache.used_bytes == 10


def test_clear_drops_everything():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.used_bytes == 0
    assert cache.stats.invalidations == 2


def test_nonpositive_budget_rejected():
    with pytest.raises(EnclaveMemoryError):
        EnclaveLruCache(budget_bytes=0)


def test_fastpath_config_is_one_sizing_value():
    """One settable field: the entry-cache budget. A positive budget is a
    cache of exactly that size, 0 is no cache object at all, and a negative
    budget is rejected where it is written, not deep inside a constructor."""
    assert [f.name for f in dataclasses.fields(FastPathConfig)] == [
        "dictionary_cache_bytes"
    ]
    sized = EncDBDBEnclave(fastpath=FastPathConfig(dictionary_cache_bytes=4096))
    assert sized.entry_cache.budget_bytes == 4096
    assert sized.epc.allocated_pages == 1

    paper = EncDBDBEnclave(fastpath=FastPathConfig(dictionary_cache_bytes=0))
    assert paper.entry_cache is None
    assert paper.epc.allocated_pages == 0

    with pytest.raises(EnclaveMemoryError):
        FastPathConfig(dictionary_cache_bytes=-1)

    # The executor takes no search-path configuration at all.
    assert list(inspect.signature(Executor.__init__).parameters) == [
        "self",
        "catalog",
        "enclave_host",
    ]


def test_invalidate_prefix_evicts_one_partition():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t", "c", 0, 5, b"x"), 1, 10)
    cache.put(("t", "c", 0, 5, b"y"), 2, 10)
    cache.put(("t", "c", 1, 5, b"x"), 3, 10)
    cache.put(("t", "d", 0, 5, b"x"), 4, 10)
    cache.put("plain-key", 5, 10)
    assert cache.invalidate_prefix(("t", "c", 0)) == 2
    assert cache.get(("t", "c", 0, 5, b"x")) is None
    assert cache.get(("t", "c", 1, 5, b"x")) == 3
    assert cache.get(("t", "d", 0, 5, b"x")) == 4
    assert cache.get("plain-key") == 5


def test_invalidate_prefix_never_matches_non_tuple_keys():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put("abc", 1, 10)
    cache.put(("a",), 2, 10)
    assert cache.invalidate_prefix(("a",)) == 1
    assert cache.get("abc") == 1


def test_group_usage_reports_bytes_per_partition():
    cache = EnclaveLruCache(budget_bytes=1000)
    cache.put(("t", "c", 0, 5, b"x"), 1, 10)
    cache.put(("t", "c", 0, 5, b"y"), 2, 15)
    cache.put(("t", "c", 1, 5, b"x"), 3, 20)
    cache.put("plain-key", 4, 7)
    usage = cache.group_usage()
    assert usage[("t", "c", 0)] == 25
    assert usage[("t", "c", 1)] == 20
    assert usage[()] == 7


def _assert_index_consistent(cache: EnclaveLruCache) -> None:
    """The partition index holds exactly the resident keys, each in its
    own group, and the per-group bytes add up to ``used_bytes``."""
    indexed = [key for members in cache._groups.values() for key in members]
    assert sorted(map(repr, indexed)) == sorted(map(repr, cache._entries))
    for group, members in cache._groups.items():
        assert members
        for key in members:
            if isinstance(key, tuple) and len(key) >= 3:
                assert key[:3] == group
            else:
                assert group == ()
    assert sum(cache.group_usage().values()) == cache.used_bytes


def test_partition_index_tracks_put_replace_and_evict():
    cache = EnclaveLruCache(budget_bytes=100)
    cache.put(("t", "c", 0, 1, b"a"), 1, 30)
    cache.put(("t", "c", 0, 1, b"a"), 1, 20)  # replace: still one key
    cache.put(("t", "c", 1, 1, b"a"), 2, 30)
    cache.put("plain", 3, 30)
    _assert_index_consistent(cache)
    cache.put(("t", "d", 0, 1, b"a"), 4, 40)  # evicts partition 0's only key
    assert cache.stats.evictions == 1
    assert ("t", "c", 0) not in cache.group_usage()
    _assert_index_consistent(cache)


def test_partition_index_tracks_invalidate_and_clear():
    cache = EnclaveLruCache(budget_bytes=1000)
    for partition in range(3):
        for blob in (b"x", b"y"):
            cache.put(("t", "c", partition, 1, blob), partition, 10)
    cache.put(("t",), 9, 10)
    assert cache.invalidate(lambda key: key[-1] == b"y") == 3
    _assert_index_consistent(cache)
    assert cache.invalidate_prefix(("t", "c", 1)) == 1
    assert cache.invalidate_prefix(("t", "c", 1)) == 0
    assert cache.invalidate_prefix(("t", "c")) == 2  # narrower prefix: scans
    _assert_index_consistent(cache)
    assert cache.group_usage() == {(): 10}
    assert cache.clear() == 1
    assert cache._groups == {}
    _assert_index_consistent(cache)


def test_partition_index_consistent_under_concurrent_writers():
    """Fills, LRU evictions and partition drops from several threads keep
    the index equal to the resident key set (the race-smoke CI job runs
    this under the runtime race detector)."""
    cache = EnclaveLruCache(budget_bytes=2000, cost_model=CostModel())
    threads = 4  # more than the cores of a small CI runner
    barrier = threading.Barrier(threads)

    def worker(index: int) -> None:
        barrier.wait()
        for i in range(400):
            key = ("t", f"c{index % 2}", i % 5, 0, bytes([index, i % 256]))
            cache.put(key, i, 16)
            cache.get(key)
            if i % 25 == 0:
                cache.invalidate_prefix(("t", f"c{index % 2}", i % 5))
            if i % 97 == 0:
                cache.group_usage()

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert cache.stats.evictions > 0
    _assert_index_consistent(cache)
