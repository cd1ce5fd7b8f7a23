"""Unit tests of the EPC-budgeted enclave LRU cache."""

from __future__ import annotations

import dataclasses
import inspect

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
