# lint-module: repro.columnstore.clean
"""Known-good fixture: untrusted code that respects every rule."""

import threading

from repro.sgx.enclave import EnclaveHost  # registered surface symbol

_stats_lock = threading.Lock()
_stats = {}  # guarded-by: _stats_lock


def record(name: str) -> None:
    with _stats_lock:
        _stats[name] = _stats.get(name, 0) + 1


def search(host: EnclaveHost, blobs, encrypted_range) -> object:
    record("dict_search")
    return host.ecall("dict_search", [(blobs, encrypted_range)])[0]


# lint: allow(forbidden-symbol) justification="suppression self-test: the word is only exercised so tests can assert justified suppressions count as suppressed"
seal = None
