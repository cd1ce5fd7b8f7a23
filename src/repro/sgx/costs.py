"""Cycle-cost accounting for the simulated enclave.

Pure-Python wall-clock times do not transfer to the paper's C-on-SGX numbers,
so alongside wall-clock latency the reproduction tracks an architectural cost
model: how many enclave transitions, in-enclave decryptions, untrusted loads
and EPC page faults an operation performs, weighted with cycle costs from the
SGX literature. The *relative* costs (e.g. one ecall per query, logarithmic
vs. linear decrypt counts) are exactly what the paper's evaluation argues
about, and they are deterministic here.

Default cycle weights follow published microbenchmarks (Costan & Devadas
2016; van Bulck et al.; Orenbach et al. "Eleos"): an ecall/ocall round trip
costs ~8,000-14,000 cycles, an EPC page fault ~12,000+ cycles, AES-GCM with
AES-NI ~1-2 cycles/byte plus fixed setup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostParameters:
    """Cycle weights for the architectural events the simulation counts."""

    ecall_cycles: int = 8_000
    ocall_cycles: int = 8_000
    epc_page_fault_cycles: int = 12_000
    untrusted_load_cycles: int = 100  # cache-missing read of one dict entry
    aes_gcm_fixed_cycles: int = 1_200  # per-message setup (key schedule, IV)
    aes_gcm_per_byte_cycles: int = 2
    compare_cycles: int = 10  # one plaintext comparison inside the enclave

    clock_hz: float = 3.7e9  # the paper's Xeon E-2176G @ 3.70 GHz


@dataclass
class CostModel:
    """Mutable event counters plus the weighting parameters.

    The enclave runtime increments these counters as a side effect of every
    boundary crossing, memory access and decryption; benchmarks read them to
    report architectural costs next to wall-clock numbers. All ``record_*``
    methods (and :meth:`snapshot`/:meth:`reset`) are guarded by one reentrant
    lock so concurrent build and scan workers can charge the same model
    without losing increments — counts stay exactly additive under threads.
    """

    parameters: CostParameters = field(default_factory=CostParameters)
    ecalls: int = 0  # guarded-by: self._lock
    ocalls: int = 0  # guarded-by: self._lock
    epc_page_faults: int = 0  # guarded-by: self._lock
    untrusted_loads: int = 0  # guarded-by: self._lock
    decryptions: int = 0  # guarded-by: self._lock
    decrypted_bytes: int = 0  # guarded-by: self._lock
    comparisons: int = 0  # guarded-by: self._lock
    bytes_copied_in: int = 0  # guarded-by: self._lock
    bytes_copied_out: int = 0  # guarded-by: self._lock
    #: Per-entry-point ecall counts, e.g. {"dict_search": 3}. Benchmarks use
    #: this to assert *which* boundary crossings a query plan performed
    #: (one ``dict_search`` per query plan, whatever its store count).
    ecalls_by_name: dict = field(default_factory=dict)  # guarded-by: self._lock
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def record_ecall(
        self, bytes_in: int = 0, bytes_out: int = 0, name: str | None = None
    ) -> None:
        with self._lock:
            self.ecalls += 1
            self.bytes_copied_in += bytes_in
            self.bytes_copied_out += bytes_out
            if name is not None:
                self.ecalls_by_name[name] = self.ecalls_by_name.get(name, 0) + 1

    def record_ocall(self) -> None:
        with self._lock:
            self.ocalls += 1

    def record_page_fault(self, count: int = 1) -> None:
        with self._lock:
            self.epc_page_faults += count

    def record_untrusted_load(self, count: int = 1) -> None:
        with self._lock:
            self.untrusted_loads += count

    def record_decryption(self, nbytes: int) -> None:
        with self._lock:
            self.decryptions += 1
            self.decrypted_bytes += nbytes

    def record_decryption_batch(self, count: int, nbytes: int) -> None:
        """Charge ``count`` decryptions totalling ``nbytes`` in one locked
        update — identical counters to ``count`` single calls, one lock
        acquisition (the packed-dictionary fill decrypts whole partitions)."""
        with self._lock:
            self.decryptions += count
            self.decrypted_bytes += nbytes

    def record_comparison(self, count: int = 1) -> None:
        with self._lock:
            self.comparisons += count

    def estimated_cycles(self) -> int:
        """Total architectural cycles implied by the recorded events."""
        p = self.parameters
        return (
            self.ecalls * p.ecall_cycles
            + self.ocalls * p.ocall_cycles
            + self.epc_page_faults * p.epc_page_fault_cycles
            + self.untrusted_loads * p.untrusted_load_cycles
            + self.decryptions * p.aes_gcm_fixed_cycles
            + self.decrypted_bytes * p.aes_gcm_per_byte_cycles
            + self.comparisons * p.compare_cycles
        )

    def estimated_seconds(self) -> float:
        """The recorded cycles expressed as time on the paper's CPU."""
        return self.estimated_cycles() / self.parameters.clock_hz

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counters, convenient for reports."""
        with self._lock:
            return {
                "ecalls": self.ecalls,
                "ocalls": self.ocalls,
                "epc_page_faults": self.epc_page_faults,
                "untrusted_loads": self.untrusted_loads,
                "decryptions": self.decryptions,
                "decrypted_bytes": self.decrypted_bytes,
                "comparisons": self.comparisons,
                "bytes_copied_in": self.bytes_copied_in,
                "bytes_copied_out": self.bytes_copied_out,
            }

    def reset(self) -> None:
        """Zero every counter (the weights are kept)."""
        with self._lock:
            for name in self.snapshot():
                setattr(self, name, 0)
            self.ecalls_by_name.clear()

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counters accumulated since an earlier :meth:`snapshot`."""
        current = self.snapshot()
        return {key: current[key] - earlier.get(key, 0) for key in current}
