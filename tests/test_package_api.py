"""Top-level package API: lazy exports, version, error hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    AttestationError,
    AuthenticationError,
    CatalogError,
    CryptoError,
    EncDBDBError,
    EnclaveMemoryError,
    EnclaveSecurityError,
    PlanError,
    QueryError,
    SqlSyntaxError,
    StorageError,
)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_lazy_exports_resolve():
    assert repro.EncDBDBSystem.__name__ == "EncDBDBSystem"
    assert repro.ED1.name == "ED1"
    assert repro.ED9.number == 9
    assert repro.RepetitionOption.HIDING.frequency_leakage == "none"
    assert repro.OrderOption.SORTED.order_leakage == "full"
    assert repro.EncryptedDictionaryKind is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_all_exports_are_reachable():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_exception_hierarchy():
    assert issubclass(AuthenticationError, CryptoError)
    assert issubclass(CryptoError, EncDBDBError)
    assert issubclass(AttestationError, EnclaveSecurityError)
    assert issubclass(EnclaveMemoryError, EnclaveSecurityError)
    assert issubclass(EnclaveSecurityError, EncDBDBError)
    assert issubclass(SqlSyntaxError, QueryError)
    assert issubclass(PlanError, QueryError)
    assert issubclass(QueryError, EncDBDBError)
    assert issubclass(StorageError, EncDBDBError)
    assert issubclass(CatalogError, EncDBDBError)


def test_one_base_class_catches_everything():
    """Callers can catch EncDBDBError for any library failure."""
    with pytest.raises(EncDBDBError):
        system = repro.EncDBDBSystem.create(seed=1)
        system.execute("SELEKT nonsense")


# ----------------------------------------------------------------------
# Names the end-to-end benchmark (benchmarks/e2e/) binds from outside the
# package: wrapped by attribute name in trace.py, read in layers.py,
# harness.py, stats.py and run.py. Renaming or rerouting one breaks the
# benchmark without failing any other tier-1 test, so they are pinned here
# without importing the benchmark itself.
# ----------------------------------------------------------------------
_SERVER_VERBS = (
    "execute_select",
    "execute_select_pushdown",
    "execute_insert",
    "execute_delete",
    "execute_merge",
    "bulk_load",
    "bulk_load_stream",
    "save",
    "load",
)
BENCHMARK_BINDINGS = [
    ("repro.columnstore.column", "attr_vect_search"),
    ("repro.columnstore.column", "attr_vect_search_many"),
    ("repro.runtime", "dispatch_stats"),
    ("repro.runtime", "configured_workers"),
    ("repro.bench.stats", "BenchStats.capture"),
    ("repro.sgx.cache", "FastPathConfig"),
    ("repro.client.owner", "DataOwner.deploy_table"),
    ("repro.client.proxy", "Proxy.execute"),
    ("repro.client.proxy", "parse"),
    ("repro.client.proxy", "encrypt_search_range"),
    ("repro.sql.planner", "Planner.plan"),
    ("repro.crypto.pae", "Pae.encrypt"),
    ("repro.crypto.pae", "Pae.decrypt"),
    ("repro.crypto.pae", "Pae.encrypt_many"),
    ("repro.crypto.pae", "Pae.decrypt_many"),
    ("repro.crypto.pae", "default_pae"),
    ("repro.net.client", "NetConnection.call"),
    ("repro.net.client", "encode_payload"),
    ("repro.net.client", "decode_payload"),
    ("repro.net.server", "encode_payload"),
    ("repro.net.server", "decode_payload"),
    ("repro.net", "NetServer"),
    ("repro.net", "ServerThread"),
    ("repro.sgx.enclave", "EnclaveHost.ecall"),
    ("repro.columnstore.merge_policy", "delta_row_count"),
    ("repro.exceptions", "ServerBusyError"),
] + [("repro.server.dbms", f"EncDBDBServer.{verb}") for verb in _SERVER_VERBS]


@pytest.mark.parametrize(
    "module_name, attribute",
    BENCHMARK_BINDINGS,
    ids=[f"{module}.{attribute}" for module, attribute in BENCHMARK_BINDINGS],
)
def test_benchmark_name_bindings_resolve(module_name, attribute):
    import importlib

    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_benchmark_reads_resolve_on_live_objects():
    """The attributes the benchmark reads off instances, not classes."""
    import dataclasses

    from repro import EncDBDBSystem
    from repro.bench.stats import BenchStats
    from repro.runtime import dispatch_stats
    from repro.server.dbms import EncDBDBServer
    from repro.sgx.cache import FastPathConfig

    assert {"cores", "workers", "dispatch"} <= set(BenchStats.capture().to_dict())
    # The residue of repro.runtime tells the truth: builds run inline.
    assert BenchStats.capture().workers == 1
    assert dispatch_stats() == {}
    server = EncDBDBServer(fastpath=FastPathConfig(dictionary_cache_bytes=1 << 20))
    assert "peak_bytes" in server._enclave.fastpath_stats()
    # The harness builds systems with FastPathConfig(dictionary_cache_bytes=n)
    # or fastpath=None, and reads the cache counters at the default size.
    assert [f.name for f in dataclasses.fields(FastPathConfig)] == [
        "dictionary_cache_bytes"
    ]
    sized = EncDBDBSystem.create(
        seed=3, fastpath=FastPathConfig(dictionary_cache_bytes=2 << 20)
    )
    assert sized.server._enclave.entry_cache.budget_bytes == 2 << 20
    default = EncDBDBSystem.create(seed=3, fastpath=None)
    assert "peak_bytes" in default.server._enclave.fastpath_stats()
    assert server.executor.last_merge_stats is None


def test_detected_cores_is_positive():
    from repro.runtime import detected_cores

    assert detected_cores() >= 1
