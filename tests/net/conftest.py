"""Shared fixtures for the network-layer tests: live TCP servers."""

from __future__ import annotations

import pytest

from repro.net.server import NetServer, ServerThread
from repro.server.dbms import EncDBDBServer
from repro.sgx.cache import FastPathConfig


@pytest.fixture
def net_server():
    """A running TCP server on an ephemeral port (default DBMS config)."""
    with ServerThread(NetServer(max_sessions=16)) as handle:
        yield handle


@pytest.fixture
def accounting_server():
    """A server whose enclave keeps nothing resident (budget 0): every
    query decrypts every probe, so enclave counters are additive and
    concurrency tests can assert that without cache-hit noise."""
    dbms = EncDBDBServer(fastpath=FastPathConfig(dictionary_cache_bytes=0))
    with ServerThread(NetServer(dbms, max_sessions=16)) as handle:
        yield handle
