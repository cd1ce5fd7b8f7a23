"""Enclave programs and the untrusted host interface.

An :class:`Enclave` subclass is the unit of deployment: its public surface is
exactly the methods decorated with :func:`ecall`. Untrusted code never holds
the enclave object itself — it holds an :class:`EnclaveHost`, whose
:meth:`~EnclaveHost.ecall` method is the only way in, mirroring how an SGX
host process can invoke an enclave only through its registered entry points
(paper §2.2).

Isolation is enforced in software: secret enclave state lives in a protected
store that raises :class:`~repro.exceptions.EnclaveSecurityError` whenever it
is touched while no ecall is executing. Every boundary crossing is charged to
the enclave's :class:`~repro.sgx.costs.CostModel`, and in-enclave allocations
go through the strict :class:`~repro.sgx.memory.EpcModel`, so tests can
assert EncDBDB's "constant enclave memory, one ecall per query" properties.
"""

from __future__ import annotations

import hashlib
import inspect
import threading
from typing import Any, Callable

from repro.crypto.drbg import HmacDrbg
from repro.exceptions import EnclaveSecurityError
from repro.sgx.costs import CostModel
from repro.sgx.memory import EpcModel


def ecall(function: Callable) -> Callable:
    """Mark a method of an :class:`Enclave` subclass as an enclave entry point."""
    function.__is_ecall__ = True
    return function


class Enclave:
    """Base class for enclave programs.

    Subclasses define their trusted interface with :func:`ecall`-decorated
    methods and keep secrets in the protected store via
    :meth:`protected_set` / :meth:`protected_get`.
    """

    def __init__(
        self,
        *,
        cost_model: CostModel | None = None,
        rng: HmacDrbg | None = None,
        epc_strict: bool = True,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.epc = EpcModel(self.cost_model, strict=epc_strict)
        # Enclave-internal randomness (sgx_read_rand in the real SDK).
        self._rng = rng if rng is not None else HmacDrbg(b"enclave-rdrand")
        self._protected: dict[str, Any] = {}
        # Serializes boundary crossings: real SGX enclaves support multiple
        # TCS entries, but this program's protected store and call-depth
        # gating assume one thread inside at a time. Host threads (query
        # sessions, the online-rotation driver) may therefore share one
        # enclave; a writer blocks readers for at most one ecall.
        self._boundary_lock = threading.RLock()
        self._call_depth = 0  # guarded-by: self._boundary_lock
        self._measurement = measure_enclave_class(type(self))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def measurement(self) -> bytes:
        """MRENCLAVE analogue: a hash of the enclave's code identity."""
        return self._measurement

    # ------------------------------------------------------------------
    # Protected memory
    # ------------------------------------------------------------------
    def _require_inside(self, operation: str) -> None:
        if self._call_depth == 0:
            raise EnclaveSecurityError(
                f"{operation} attempted from outside the enclave boundary"
            )

    def protected_set(self, key: str, value: Any) -> None:
        """Store a secret; only callable while an ecall is executing."""
        self._require_inside(f"protected_set({key!r})")
        self._protected[key] = value

    def protected_get(self, key: str) -> Any:
        """Read a secret; only callable while an ecall is executing."""
        self._require_inside(f"protected_get({key!r})")
        try:
            return self._protected[key]
        except KeyError:
            raise EnclaveSecurityError(f"no protected value named {key!r}") from None

    def protected_has(self, key: str) -> bool:
        self._require_inside(f"protected_has({key!r})")
        return key in self._protected

    # ------------------------------------------------------------------
    # Dispatch (used by EnclaveHost, not by untrusted code directly)
    # ------------------------------------------------------------------
    def _dispatch(self, name: str, args: tuple, kwargs: dict) -> Any:
        method = getattr(type(self), name, None)
        if method is None or not getattr(method, "__is_ecall__", False):
            raise EnclaveSecurityError(f"{name!r} is not a registered ecall")
        with self._boundary_lock:
            self.cost_model.record_ecall(name=name)
            self._call_depth += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                self._call_depth -= 1

    def ecall_names(self) -> tuple[str, ...]:
        """The registered entry points, in definition order."""
        names = []
        for klass in reversed(type(self).__mro__):
            for name, member in vars(klass).items():
                if getattr(member, "__is_ecall__", False) and name not in names:
                    names.append(name)
        return tuple(names)


class EnclaveHost:
    """The untrusted process's handle to a loaded enclave.

    Everything the DBMS (untrusted) does with the enclave goes through
    :meth:`ecall`; the host also exposes the attestation-relevant
    measurement, which is public by design.
    """

    def __init__(self, enclave: Enclave) -> None:
        self._enclave = enclave

    @property
    def measurement(self) -> bytes:
        return self._enclave.measurement

    @property
    def cost_model(self) -> CostModel:
        return self._enclave.cost_model

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a registered enclave entry point."""
        return self._enclave._dispatch(name, args, kwargs)

    def ecall_names(self) -> tuple[str, ...]:
        return self._enclave.ecall_names()


def measure_enclave_class(enclave_class: type) -> bytes:
    """Compute the MRENCLAVE analogue for an enclave class.

    The measurement hashes the class name and the source code of every ecall
    in MRO order, so any change to the trusted code changes the identity —
    the property remote attestation depends on.
    """
    digest = hashlib.sha256()
    digest.update(enclave_class.__qualname__.encode("utf-8"))
    for klass in reversed(enclave_class.__mro__):
        for name in sorted(vars(klass)):
            member = vars(klass)[name]
            if getattr(member, "__is_ecall__", False):
                digest.update(b"\x00" + name.encode("utf-8") + b"\x00")
                digest.update(_code_identity(member))
    return digest.digest()


def _code_identity(function: Callable) -> bytes:
    try:
        return inspect.getsource(function).encode("utf-8")
    except (OSError, TypeError):  # e.g. defined in a REPL
        code = getattr(function, "__code__", None)
        return code.co_code if code is not None else repr(function).encode("utf-8")
