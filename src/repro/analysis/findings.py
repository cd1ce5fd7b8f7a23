"""Finding model and rule registry of the ``repro.analysis`` linter.

Every pass reports :class:`Finding` records; the engine resolves inline
suppressions against them and renders text or machine-readable JSON. Rules
are identified by stable kebab-case ids so suppression comments and CI
gating never depend on message wording.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- Trust-boundary pass -------------------------------------------------
#: An untrusted/public module imports a trusted symbol that is not part of
#: the registered boundary surface (ecall host handle, config, wire types).
RULE_BOUNDARY_IMPORT = "boundary-import"
#: An untrusted/public module references a key- or plaintext-bearing symbol
#: (``SKDB``, ``pae_gen``, ``derive_column_key``, sealing keys, ...) or an
#: enclave-internal member (``_protected``, ``protected_get``, ...).
RULE_FORBIDDEN_SYMBOL = "forbidden-symbol"
#: ``host.ecall("name")`` with a name outside the registered ecall surface.
RULE_UNKNOWN_ECALL = "unknown-ecall"

# --- Crypto-discipline pass ----------------------------------------------
#: ``os.urandom`` / ``random`` / ``secrets`` / ``numpy.random`` inside a
#: deterministic build path (IVs must come from a caller DRBG, PR 4).
RULE_NONDET_RANDOMNESS = "nondet-randomness"
#: AES/GCM primitives or PAE internals (``_seal``/``_open``/``_draw_iv``)
#: referenced outside ``repro.crypto`` — bypassing the counted batch
#: interface that the cost model and IV discipline hang off.
RULE_PAE_BYPASS = "pae-bypass"
#: A ``repro.net`` module imports a plaintext-bearing build/dictionary
#: symbol — plaintext types must never be serializable into wire frames.
RULE_WIRE_PLAINTEXT = "wire-plaintext"
#: ``pickle``/``marshal``-style ambient serialization anywhere in ``src``.
RULE_UNSAFE_SERIALIZATION = "unsafe-serialization"

# --- Lock-discipline pass ------------------------------------------------
#: A ``# guarded-by:`` annotated attribute is mutated outside a ``with``
#: block on its declared lock.
RULE_UNGUARDED_MUTATION = "unguarded-mutation"
#: A ``# guarded-by:`` annotation names a lock the class/module never
#: defines, or is syntactically unusable.
RULE_BAD_ANNOTATION = "bad-annotation"

# --- Plaintext-taint pass (PR 10) ----------------------------------------
#: A plaintext- or key-derived value (PAE decrypt output, unsealed SKDB,
#: DRBG seed, secure-channel payload) reaches an untrusted sink — wire
#: frames, log/exception strings, EXPLAIN lines, bench payloads — without a
#: sanctioned sanitizer (PAE encrypt, sealing, digests, redaction).
RULE_PLAINTEXT_TAINT = "plaintext-taint"

# --- Leakage-contract pass (PR 10) ---------------------------------------
#: An ``@ecall`` entry point without a declared leakage contract in
#: :data:`repro.analysis.leakage.ECALL_CONTRACTS`. (Wire verbs cannot be
#: undeclared: their contract is a field of ``repro.net.verbs.Verb``.)
RULE_UNDECLARED_CONTRACT = "undeclared-contract"
#: A response-constructing site whose declared shaping helpers (padding,
#: uniform frame sizing, ordinal-bound clamping, redaction) never appear in
#: its body — the contract is declared but not provably applied.
RULE_UNSHAPED_RESPONSE = "unshaped-response"

# --- Suppression mechanism -----------------------------------------------
#: A ``lint: allow(...)`` comment without the mandatory justification, or
#: one that is malformed. Never suppressible itself.
RULE_BAD_SUPPRESSION = "bad-suppression"

ALL_RULES: tuple[str, ...] = (
    RULE_BOUNDARY_IMPORT,
    RULE_FORBIDDEN_SYMBOL,
    RULE_UNKNOWN_ECALL,
    RULE_NONDET_RANDOMNESS,
    RULE_PAE_BYPASS,
    RULE_WIRE_PLAINTEXT,
    RULE_UNSAFE_SERIALIZATION,
    RULE_UNGUARDED_MUTATION,
    RULE_BAD_ANNOTATION,
    RULE_PLAINTEXT_TAINT,
    RULE_UNDECLARED_CONTRACT,
    RULE_UNSHAPED_RESPONSE,
    RULE_BAD_SUPPRESSION,
)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    module: str
    path: str
    line: int
    message: str
    symbol: str | None = None
    suppressed: bool = False
    justification: str | None = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"


@dataclass
class FileReport:
    """All findings of one analyzed file."""

    path: str
    module: str
    findings: list[Finding] = field(default_factory=list)
