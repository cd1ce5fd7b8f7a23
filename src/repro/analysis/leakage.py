"""Leakage-contract lint (pass 5, PR 10).

EncDBDB's guarantee is not "no leakage" but *declared, bounded* leakage:
every provider-observable response — an ecall return value, a wire frame —
is shaped by a specific helper (power-of-two group padding, padded
per-partition range unions, uniform-size frames, fixed-width ordinal
bounds, error redaction) so that what the provider sees is exactly what
DESIGN.md §15's per-kind table promises and nothing more.

This pass makes those contracts *data* and machine-checks them:

- :data:`ECALL_CONTRACTS` declares, for every registered ecall, which
  shaping helpers its body must provably invoke. An ``@ecall`` definition
  with no declared contract is an error (``undeclared-contract``) — a new
  enclave entry point cannot ship without stating its leakage. A declared
  contract whose shaping helpers never appear in the body is an error too
  (``unshaped-response``): the promise exists but is not applied.
  :data:`ECALL_CONTRACTS` is also the only list of ecall names: the
  boundary pass checks every ``host.ecall("…")`` name against it, and
  ``tests/analysis/test_leakage_contracts.py`` pins its keys to
  ``EncDBDBEnclave().ecall_names()``, so drift fails CI from both
  directions.
- The wire surface needs no second registry: the verb table
  (:data:`repro.net.verbs.VERBS`) is its own contract, since
  ``observables`` and ``shaping`` are fields a verb cannot be constructed
  without. What stays a lint rule is that the server module routes
  failures through ``redact_exception`` (the error-frame shaping all verbs
  share) and references every verb's declared shaping helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import (
    RULE_UNDECLARED_CONTRACT,
    RULE_UNSHAPED_RESPONSE,
    Finding,
)
from repro.analysis.taint import is_ecall_def
from repro.net.verbs import VERBS

SERVER_MODULE = "repro.net.server"
VERB_TABLE_NAME = "VERBS"
ERROR_SHAPER = "redact_exception"


@dataclass(frozen=True)
class LeakageContract:
    """What one response-constructing site is allowed to reveal.

    ``observables`` is prose — the provider-visible facts this entry point
    legitimately leaks (sizes, counts, ordinal positions). ``shaping`` is
    mechanical — helper names that must appear in the implementing body,
    each one the function that *bounds* an observable to its declaration.
    """

    name: str
    observables: str
    shaping: tuple[str, ...]


def _ecall(name: str, observables: str, *shaping: str) -> tuple[str, LeakageContract]:
    return name, LeakageContract(name, observables, shaping)


#: Per-ecall leakage contracts, and the one registry of ecall names. Keys
#: are asserted equal to ``EncDBDBEnclave().ecall_names()`` by the test suite.
ECALL_CONTRACTS: dict[str, LeakageContract] = dict(
    [
        _ecall(
            "channel_offer",
            "one DH public value plus an attestation quote (both public)",
            "offer",
        ),
        _ecall(
            "channel_accept",
            "nothing (returns None; observes one public DH value)",
            "accept",
        ),
        _ecall(
            "provision_master_key",
            "nothing (returns None; consumes one PAE blob)",
            "receive",
        ),
        _ecall(
            "replicate_master_key",
            "one DH public value and one fixed-size PAE blob wrapping SKDB "
            "under the enclave-to-enclave session key",
            "send",
        ),
        _ecall(
            "is_provisioned",
            "one boolean the host already observes via the provisioning "
            "ecall sequence",
        ),
        _ecall(
            "seal_master_key",
            "one sealed blob of fixed size (key length + PAE overhead)",
            "seal",
        ),
        _ecall(
            "restore_master_key",
            "nothing (returns None; consumes one sealed blob)",
            "unseal",
        ),
        _ecall(
            "dict_search",
            "request-order list of per-dictionary search results: ordinal "
            "range positions / matched-vid sets — each kind's declared order "
            "and frequency leakage, padded per kind (rotated kinds: always "
            "exactly two ranges)",
            "search",
        ),
        _ecall(
            "join_tokens",
            "one fixed-width HMAC token per dictionary entry (entry count "
            "is already public)",
            "digest",
        ),
        _ecall(
            "reseal_delta",
            "same-count, same-size re-sealed blobs: an INSERT's transit blobs "
            "into the storage epoch, or the delta store across a key flip",
            "encrypt_many",
        ),
        _ecall(
            "rebuild_for_merge",
            "a freshly built encrypted dictionary + attribute vector; "
            "entry order decorrelated by an oblivious shuffle. Its inputs "
            "are the host's own stored (dictionary, ValueIDs) per store — "
            "a re-encoding of the surviving rows' per-row blobs — each "
            "refused unless of the rebuilt (table, column, key_epoch)",
            "_build_partition",
            "oblivious_shuffle",
        ),
        _ecall(
            "rotate_partition",
            "a deterministically rebuilt encrypted partition (replica-"
            "convergent; randomness from the rotation seed, not ambient)",
            "_build_partition",
            "derive_rotation_seed",
        ),
        _ecall(
            "aggregate_groups",
            "a power-of-two count of uniform-size encrypted group frames. "
            "Its group and measure stores are each refused unless of "
            "(table_name, that store's column)",
            "padded_frame_count",
            "encode_frame_payload",
            "encrypt_many",
        ),
    ]
)


def _referenced_names(*roots: ast.AST) -> set[str]:
    """Every Name id / Attribute attr referenced under ``roots``."""
    names: set[str] = set()
    for root in roots:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def check(tree: ast.AST, *, module: str, path: str) -> list[Finding]:
    findings: list[Finding] = []

    def report(rule: str, line: int, message: str, symbol: str | None) -> None:
        findings.append(
            Finding(
                rule=rule,
                module=module,
                path=path,
                line=line,
                message=message,
                symbol=symbol,
            )
        )

    # ---- ecall contracts: every @ecall body applies its shaping ------
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not is_ecall_def(node):
            continue
        contract = ECALL_CONTRACTS.get(node.name)
        if contract is None:
            report(
                RULE_UNDECLARED_CONTRACT,
                node.lineno,
                f"@ecall {node.name!r} has no declared leakage contract; "
                "add one to analysis.leakage.ECALL_CONTRACTS stating what "
                "the provider may observe and which helper shapes it",
                node.name,
            )
            continue
        referenced = _referenced_names(*node.body)
        for helper in contract.shaping:
            if helper not in referenced:
                report(
                    RULE_UNSHAPED_RESPONSE,
                    node.lineno,
                    f"@ecall {node.name!r} declares shaping helper "
                    f"{helper!r} in its leakage contract but never "
                    "references it — the declared bound is not applied",
                    helper,
                )

    # ---- verb contracts: the dispatcher applies the shared shaping ----
    # All verbs share the error-frame contract (typed kind + scrubbed
    # message via ``redact_exception``); each verb's ``shaping`` lists any
    # additional helper the server module must reference.
    # A snippet merely *claiming* the server module name (fixtures,
    # unit-test sources) is not the wire surface; anchor the module-wide
    # shaping checks on the dispatcher's use of the verb table.
    if module == SERVER_MODULE:
        module_refs = _referenced_names(tree)
        if VERB_TABLE_NAME not in module_refs:
            return findings
        if ERROR_SHAPER not in module_refs:
            report(
                RULE_UNSHAPED_RESPONSE,
                1,
                f"{SERVER_MODULE} never references {ERROR_SHAPER!r}; every "
                "verb's error path must emit typed, scrubbed error frames",
                ERROR_SHAPER,
            )
        for verb in VERBS.values():
            for helper in verb.shaping:
                if helper not in module_refs:
                    report(
                        RULE_UNSHAPED_RESPONSE,
                        1,
                        f"wire verb {verb.name!r} declares shaping helper "
                        f"{helper!r} but the server never references it",
                        helper,
                    )

    return findings
