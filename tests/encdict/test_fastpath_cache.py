"""Correctness of the query fast path (PR 1).

The ISSUE's cache-correctness checklist: byte-identical results cached vs
uncached across all nine dictionary kinds, eviction under EPC pressure,
epoch invalidation after write ecalls (stale entries must never be served),
and batched-ecall equivalence.
"""

from __future__ import annotations

import pytest

from repro.columnstore.partition import DELTA_PARTITION_ID
from repro.columnstore.types import VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import default_pae, pae_gen
from repro.encdict.attrvect import attr_vect_search
from repro.encdict.builder import encdb_build
from repro.encdict.enclave_app import EncDBDBEnclave, encrypt_search_range
from repro.encdict.options import ALL_KINDS, ED1, ED2, ED3
from repro.encdict.search import OrdinalRange
from repro.exceptions import QueryError
from repro.sgx.attestation import AttestationService
from repro.sgx.cache import FastPathConfig
from repro.sgx.channel import SecureChannel
from repro.sgx.enclave import EnclaveHost

from tests.encdict.conftest import reference_range_search

VALUES = ["b", "a", "c", "b", "e", "d", "b", "a", "e"]


def _provisioned_host(fastpath=None, seed=b"fastpath-e2e"):
    """Full §4.2 setup; returns (host, master_key, pae, rng)."""
    rng = HmacDrbg(seed)
    service = AttestationService()
    pae = default_pae(rng=rng.fork("client-pae"))
    enclave = EncDBDBEnclave(
        attestation=service,
        pae=default_pae(rng=rng.fork("enclave-pae")),
        rng=rng.fork("enclave"),
        fastpath=fastpath,
    )
    host = EnclaveHost(enclave)
    master_key = pae_gen(rng=rng.fork("skdb"))

    offer = host.ecall("channel_offer")
    channel, client_public = SecureChannel.connect(
        offer, service, host.measurement, rng=rng.fork("owner"), pae=pae
    )
    host.ecall("channel_accept", client_public)
    host.ecall("provision_master_key", channel.send(master_key))
    return host, master_key, pae, rng


def _build(master_key, pae, rng, values, kind, value_type=None, bsmax=3):
    value_type = value_type or VarcharType(20)
    key = derive_column_key(master_key, "t1", "c1")
    return encdb_build(
        values,
        kind,
        value_type=value_type,
        key=key,
        pae=pae,
        rng=rng.fork(f"b-{kind.name}"),
        bsmax=bsmax,
        table_name="t1",
        column_name="c1",
    )


def _tau(master_key, pae, value_type, low, high):
    key = derive_column_key(master_key, "t1", "c1")
    return encrypt_search_range(
        pae, key, OrdinalRange(value_type.ordinal(low), value_type.ordinal(high))
    )


# ----------------------------------------------------------------------
# Cached vs uncached equivalence
# ----------------------------------------------------------------------


#: The three regimes of the one sizing value: no cache at all, a cache too
#: small for any packed array (per-entry LRU only), and the default.
CACHE_SIZES = (0, 4096, FastPathConfig().dictionary_cache_bytes)


def _observed_searches(kind, cache_bytes):
    """Every observable of a cold and a warm search per range at one cache
    size: SearchResult, probe log, RecordIDs, comparisons, untrusted loads."""
    host, master_key, pae, rng = _provisioned_host(
        FastPathConfig(dictionary_cache_bytes=cache_bytes),
        seed=b"equiv-" + kind.name.encode(),
    )
    build = _build(master_key, pae, rng, VALUES, kind)
    searcher = host._enclave._searcher
    accessors = []
    make_accessor = searcher.accessor

    def recording_accessor(*args, **kwargs):
        accessors.append(make_accessor(*args, **kwargs))
        return accessors[-1]

    searcher.accessor = recording_accessor
    observed = []
    for low, high in [("a", "b"), ("b", "d"), ("e", "e"), ("f", "z")]:
        tau = _tau(master_key, pae, build.dictionary.value_type, low, high)
        for _temperature in ("cold", "warm"):
            before = host.cost_model.snapshot()
            result = host.ecall("dict_search", build.dictionary, tau)
            diff = host.cost_model.diff(before)
            records = sorted(
                attr_vect_search(build.attribute_vector, result).tolist()
            )
            assert records == reference_range_search(VALUES, low, high), kind
            observed.append(
                (
                    result.ranges,
                    result.vids,
                    accessors[-1].probes,
                    records,
                    diff["comparisons"],
                    diff["untrusted_loads"],
                )
            )
    return observed


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_cached_results_identical_across_all_kinds(kind):
    """The cache size changes what is decrypted, never what is observable:
    same seed => same keys and builds, so SearchResults, probe logs,
    RecordIDs and the comparison / untrusted-load charges must be identical
    at every size, cold and warm."""
    uncached, tiny, default = (
        _observed_searches(kind, cache_bytes) for cache_bytes in CACHE_SIZES
    )
    assert tiny == uncached
    assert default == uncached


def test_warm_cache_skips_decryptions():
    """A repeated ED3 query decrypts only the two τ bounds on the warm run."""
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    values = [f"v{i:03d}" for i in range(64)]
    build = _build(master_key, pae, rng, values, ED3)
    tau = _tau(master_key, pae, build.dictionary.value_type, "v010", "v020")

    before = host.cost_model.snapshot()
    host.ecall("dict_search", build.dictionary, tau)
    cold = host.cost_model.diff(before)["decryptions"]
    assert cold == 64 + 2  # every entry + both range bounds

    before = host.cost_model.snapshot()
    host.ecall("dict_search", build.dictionary, tau)
    warm = host.cost_model.diff(before)["decryptions"]
    assert warm == 2  # only the τ bounds; all 64 entries hit the cache

    # The warm run served the whole partition from the cached packed-ordinal
    # array (PR 6): one hit replaces the 64 per-entry hits of the scalar
    # path, and the per-entry plaintext never needed caching at all.
    stats = host._enclave.fastpath_stats()
    assert stats["hits"] >= 1
    usage = host._enclave.fastpath_partition_usage()
    assert sum(usage.values()) > 0  # the packed array is EPC-accounted


# ----------------------------------------------------------------------
# Eviction under EPC pressure
# ----------------------------------------------------------------------


def test_eviction_under_epc_pressure_stays_correct():
    """A cache far smaller than the dictionary evicts but never corrupts.

    Runs on a sorted kind: the logarithmic searches never eagerly fill the
    partition's packed-ordinal array, so every probe goes through the
    per-entry LRU machinery this test is about. (An unsorted kind would
    decrypt once into a packed array that exceeds this whole budget and is
    served pass-through — nothing to evict.)
    """
    tiny = FastPathConfig(dictionary_cache_bytes=4096)
    host, master_key, pae, rng = _provisioned_host(tiny)
    values = [f"v{i:03d}" for i in range(200)]
    build = _build(master_key, pae, rng, values, ED1)
    cache = host._enclave.entry_cache
    assert cache.budget_bytes == 4096

    bounds = [(f"v{low:03d}", f"v{low + 9:03d}") for low in range(0, 200, 10)]
    for low, high in bounds + bounds[:3]:
        tau = _tau(master_key, pae, build.dictionary.value_type, low, high)
        result = host.ecall("dict_search", build.dictionary, tau)
        records = sorted(attr_vect_search(build.attribute_vector, result).tolist())
        assert records == reference_range_search(values, low, high)
        assert cache.used_bytes <= cache.budget_bytes

    assert cache.stats.evictions > 0
    assert cache.stats.peak_bytes <= cache.budget_bytes
    # Evictions were charged to the cost model as paging events.
    assert host.cost_model.epc_page_faults >= cache.stats.evictions


# ----------------------------------------------------------------------
# Epoch invalidation
# ----------------------------------------------------------------------


def test_rebuild_for_merge_invalidates_column_cache():
    """After a merge rebuild no pre-merge cache entry survives."""
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    vt = VarcharType(20)
    build = _build(master_key, pae, rng, VALUES, ED2)
    tau = _tau(master_key, pae, vt, "a", "e")
    host.ecall("dict_search", build.dictionary, tau)  # populate the cache
    cache = host._enclave.entry_cache
    assert len(cache) > 0
    old_epoch = host._enclave._epoch("t1", "c1", build.dictionary.partition_id)

    merged_values = ["m", "a", "z", "m"]
    stored = _build(master_key, pae, rng, merged_values, ED1)
    new_build = host.ecall(
        "rebuild_for_merge",
        "t1",
        "c1",
        ED2,
        vt,
        [(stored.dictionary, stored.attribute_vector)],
    )

    # Epoch bumped, and every surviving key carries the current epoch for
    # some column — none references the merged column's old epoch.
    new_epoch = host._enclave._epoch("t1", "c1", new_build.dictionary.partition_id)
    assert new_epoch == old_epoch + 1
    for cache_key in list(cache._entries):
        assert not (
            cache_key[0] == "t1"
            and cache_key[1] == "c1"
            and cache_key[2] == old_epoch
        )

    # Searches against the rebuilt store are correct (stale never served).
    tau = _tau(master_key, pae, vt, "a", "m")
    result = host.ecall("dict_search", new_build.dictionary, tau)
    records = sorted(attr_vect_search(new_build.attribute_vector, result).tolist())
    assert records == reference_range_search(merged_values, "a", "m")


def test_reseal_delta_bumps_epoch():
    """An insert advances the delta partition's epoch and leaves the main
    partition's cached plaintext resident."""
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    key = derive_column_key(master_key, "t1", "c1")
    build = _build(master_key, pae, rng, VALUES, ED2)
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "e")
    host.ecall("dict_search", build.dictionary, tau)  # warm main partition 0
    resident = len(host._enclave.entry_cache)
    assert resident > 0
    before = host._enclave._epoch("t1", "c1", DELTA_PARTITION_ID)
    transit = pae.encrypt(key, b"inserted")
    host.ecall("reseal_delta", "t1", "c1", [transit])
    assert host._enclave._epoch("t1", "c1", DELTA_PARTITION_ID) == before + 1
    assert len(host._enclave.entry_cache) == resident


def test_restore_master_key_clears_caches():
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    build = _build(master_key, pae, rng, VALUES, ED3)
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "e")
    host.ecall("dict_search", build.dictionary, tau)
    cache = host._enclave.entry_cache
    assert len(cache) > 0
    sealed = host.ecall("seal_master_key")
    host.ecall("restore_master_key", sealed)
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Batched ecalls
# ----------------------------------------------------------------------


def test_dict_search_batch_matches_individual_searches():
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    vt = VarcharType(20)
    builds = [_build(master_key, pae, rng, VALUES, kind) for kind in ALL_KINDS[:3]]
    taus = [
        _tau(master_key, pae, vt, low, high)
        for low, high in [("a", "b"), ("b", "d"), ("d", "e")]
    ]
    individual = [
        host.ecall("dict_search", build.dictionary, tau)
        for build, tau in zip(builds, taus)
    ]
    before = host.cost_model.snapshot()
    batched = host.ecall(
        "dict_search_batch",
        [(build.dictionary, tau) for build, tau in zip(builds, taus)],
    )
    diff = host.cost_model.diff(before)
    assert diff["ecalls"] == 1  # all three searches in one boundary crossing
    assert len(batched) == len(individual)
    for got, expected in zip(batched, individual):
        assert got.ranges == expected.ranges and got.vids == expected.vids


def test_dict_search_batch_rejects_empty_request():
    host, *_ = _provisioned_host(FastPathConfig())
    with pytest.raises(QueryError):
        host.ecall("dict_search_batch", [])


# ----------------------------------------------------------------------
# One opener: searches, joins and aggregates share the entry cache
# ----------------------------------------------------------------------

SHARED_VALUES = ["b", "a", "c", "b", "a"]  # ED1 dictionary: 3 sorted entries


def _full_scan(host, master_key, pae, build):
    """A range covering the whole 3-entry dictionary: its two binary
    searches probe entries {1, 0} and {1, 2}, i.e. every entry."""
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "c")
    return host.ecall("dict_search", build.dictionary, tau)


def _count_by_group(host, build):
    vids = build.attribute_vector.tolist()
    return host.ecall(
        "aggregate_groups",
        "t1",
        [("COUNT", None, "n")],
        [{"group": (build.dictionary, vids), "rows": len(vids), "measures": {}}],
        group_column="c1",
    )


@pytest.mark.parametrize("bulk", ["join", "aggregate"])
def test_bulk_ecalls_after_a_scan_decrypt_nothing(bulk):
    host, master_key, pae, rng = _provisioned_host(FastPathConfig())
    build = _build(master_key, pae, rng, SHARED_VALUES, ED1)
    assert len(build.dictionary) == 3
    _full_scan(host, master_key, pae, build)
    before = host.cost_model.snapshot()
    if bulk == "join":
        host.ecall("join_tokens", build.dictionary, b"s" * 16)
    else:
        _count_by_group(host, build)
    assert host.cost_model.diff(before)["decryptions"] == 0


@pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
def test_cold_bulk_ecalls_decrypt_once_per_distinct_entry(cache_bytes):
    """Cold, a join or an aggregate opens each distinct entry exactly once,
    at every cache size; with a cache, whichever runs second — and a scan
    after both — finds them all resident."""
    host, master_key, pae, rng = _provisioned_host(
        FastPathConfig(dictionary_cache_bytes=cache_bytes)
    )
    build = _build(master_key, pae, rng, SHARED_VALUES, ED1)
    entries = len(build.dictionary)

    before = host.cost_model.snapshot()
    host.ecall("join_tokens", build.dictionary, b"s" * 16)
    assert host.cost_model.diff(before)["decryptions"] == entries

    before = host.cost_model.snapshot()
    _count_by_group(host, build)
    _full_scan(host, master_key, pae, build)
    warm = host.cost_model.diff(before)["decryptions"]
    if cache_bytes:
        assert warm == 2  # only the scan's two τ bounds
    else:
        # No cache: the aggregate re-opens every entry, the scan every probe.
        assert warm == entries + 2 + 4


def test_bare_enclave_holds_no_plaintext():
    """A bare ``EncDBDBEnclave()`` is the paper's: no cache, no EPC use."""
    host, master_key, pae, rng = _provisioned_host()  # fastpath=None
    assert host._enclave.entry_cache is None
    assert host._enclave.fastpath_stats() is None
    build = _build(master_key, pae, rng, VALUES, ED3)
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "e")
    host.ecall("dict_search", build.dictionary, tau)
    host.ecall("dict_search", build.dictionary, tau)
    assert host._enclave.epc.allocated_pages == 0


def test_zero_budget_is_the_constant_memory_enclave():
    """An explicit 0 builds no cache object and reserves no EPC: an ED3
    query decrypts every entry every time, and nothing stays resident."""
    host, master_key, pae, rng = _provisioned_host(
        FastPathConfig(dictionary_cache_bytes=0)
    )
    build = _build(master_key, pae, rng, VALUES, ED3)
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "e")
    for _ in range(2):
        before = host.cost_model.snapshot()
        host.ecall("dict_search", build.dictionary, tau)
        assert host.cost_model.diff(before)["decryptions"] == len(build.dictionary) + 2
    assert host._enclave.epc.allocated_pages == 0
    assert host._enclave.fastpath_stats() is None
    assert host._enclave.fastpath_partition_usage() is None
