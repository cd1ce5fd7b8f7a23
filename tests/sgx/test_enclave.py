"""Enclave isolation, ecall registry, and measurement tests."""

from __future__ import annotations

import pytest

from repro.exceptions import EnclaveSecurityError
from repro.sgx.enclave import Enclave, EnclaveHost, ecall, measure_enclave_class


class ToyEnclave(Enclave):
    """Minimal enclave used by the isolation tests."""

    @ecall
    def store_secret(self, value: int) -> None:
        self.protected_set("secret", value)

    @ecall
    def add_to_secret(self, delta: int) -> int:
        return self.protected_get("secret") + delta

    def not_an_ecall(self) -> str:
        return "untrusted-callable"


class OtherEnclave(Enclave):
    @ecall
    def store_secret(self, value: int) -> None:  # same name, different body
        self.protected_set("secret", value * 2)


@pytest.fixture
def host() -> EnclaveHost:
    return EnclaveHost(ToyEnclave())


def test_ecall_roundtrip(host: EnclaveHost):
    host.ecall("store_secret", 41)
    assert host.ecall("add_to_secret", 1) == 42


def test_unregistered_method_rejected(host: EnclaveHost):
    with pytest.raises(EnclaveSecurityError):
        host.ecall("not_an_ecall")


def test_unknown_ecall_rejected(host: EnclaveHost):
    with pytest.raises(EnclaveSecurityError):
        host.ecall("does_not_exist")


def test_protected_memory_unreachable_from_outside():
    enclave = ToyEnclave()
    EnclaveHost(enclave).ecall("store_secret", 7)
    with pytest.raises(EnclaveSecurityError):
        enclave.protected_get("secret")
    with pytest.raises(EnclaveSecurityError):
        enclave.protected_set("secret", 0)
    with pytest.raises(EnclaveSecurityError):
        enclave.protected_has("secret")


def test_missing_protected_value_is_security_error(host: EnclaveHost):
    with pytest.raises(EnclaveSecurityError):
        host.ecall("add_to_secret", 1)


def test_ecalls_are_counted(host: EnclaveHost):
    host.ecall("store_secret", 1)
    host.ecall("add_to_secret", 1)
    assert host.cost_model.ecalls == 2


def test_ecall_names(host: EnclaveHost):
    assert set(host.ecall_names()) == {"store_secret", "add_to_secret"}


def test_measurement_is_deterministic():
    assert ToyEnclave().measurement == ToyEnclave().measurement
    assert ToyEnclave().measurement == measure_enclave_class(ToyEnclave)


def test_measurement_reflects_code_identity():
    """Two enclaves with different trusted code measure differently."""
    assert ToyEnclave().measurement != OtherEnclave().measurement


def test_host_exposes_measurement(host: EnclaveHost):
    assert host.measurement == ToyEnclave().measurement
