"""Trust-boundary lint (pass 1).

Checks every ``untrusted``/``public`` module (and, with a wider allowlist,
every ``owner`` module) against the declarative trust map:

1. **Imports.** A restricted module may import from ``enclave``/``crypto``/
   ``owner`` modules only the symbols registered on the boundary surface —
   the ecall host handle, enclave-load artifacts, configuration, and
   wire-safe ciphertext containers. Whole-module imports of trusted modules
   are never allowed from restricted code.
2. **Symbols.** Restricted code must never *name* key- or plaintext-bearing
   identifiers (``SKDB``, ``pae_gen``, ``derive_column_key``, sealing
   helpers); no one outside the enclave may name enclave internals
   (``_protected``, ``protected_get``, ``_dispatch``, ...).
3. **Ecall names.** Every literal ``host.ecall("name", ...)`` outside the
   enclave must target a registered entry point, mirroring how SGX rejects
   unregistered ecalls at the boundary.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import resolve_import, walk_runtime
from repro.analysis.findings import (
    RULE_BOUNDARY_IMPORT,
    RULE_FORBIDDEN_SYMBOL,
    RULE_UNKNOWN_ECALL,
    Finding,
)
from repro.analysis.leakage import ECALL_CONTRACTS
from repro.analysis.trustmap import (
    ENCLAVE_INTERNALS,
    KEY_SYMBOLS,
    MODULE_TRUST,
    RESTRICTED_LEVELS,
    TRUST_CRYPTO,
    TRUST_ENCLAVE,
    TRUST_OWNER,
    TRUSTED_LEVELS,
    allowed_symbols,
    trust_level,
)


def check(tree: ast.AST, *, module: str, path: str) -> list[Finding]:
    level = trust_level(module)
    if level in (TRUST_ENCLAVE, TRUST_CRYPTO):
        return []  # the TCB itself is unrestricted

    findings: list[Finding] = []
    restricted = level in RESTRICTED_LEVELS

    def report(rule: str, node: ast.AST, message: str, symbol: str | None) -> None:
        findings.append(
            Finding(
                rule=rule,
                module=module,
                path=path,
                line=getattr(node, "lineno", 1),
                message=message,
                symbol=symbol,
            )
        )

    if restricted:
        forbidden = KEY_SYMBOLS | ENCLAVE_INTERNALS
    else:  # owner: holds keys legitimately, still barred from enclave state
        forbidden = frozenset(ENCLAVE_INTERNALS)

    for node in walk_runtime(tree):
        # ---- import rules --------------------------------------------
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                if not target.startswith("repro"):
                    continue
                target_level = trust_level(target)
                if target_level not in TRUSTED_LEVELS:
                    continue
                if level == TRUST_OWNER and target_level in (
                    TRUST_CRYPTO,
                    TRUST_OWNER,
                ):
                    continue
                report(
                    RULE_BOUNDARY_IMPORT,
                    node,
                    f"{level} module {module} imports trusted module "
                    f"{target} wholesale; only registered surface symbols "
                    "may cross the boundary",
                    target,
                )
        elif isinstance(node, ast.ImportFrom):
            target = resolve_import(node, module)
            if target is None or not target.startswith("repro"):
                continue
            target_level = trust_level(target)
            if target_level not in TRUSTED_LEVELS:
                continue
            if level == TRUST_OWNER and target_level in (TRUST_CRYPTO, TRUST_OWNER):
                continue
            surface = allowed_symbols(level, target)
            for alias in node.names:
                # ``from repro import exceptions``-style submodule imports:
                # an alias explicitly classified public/untrusted in the
                # trust map is importable from anywhere.
                sub_level = MODULE_TRUST.get(f"{target}.{alias.name}")
                if sub_level is not None and sub_level not in TRUSTED_LEVELS:
                    continue
                if alias.name == "*":
                    report(
                        RULE_BOUNDARY_IMPORT,
                        node,
                        f"{level} module {module} star-imports trusted "
                        f"module {target}",
                        "*",
                    )
                    continue
                if alias.name not in surface:
                    report(
                        RULE_BOUNDARY_IMPORT,
                        node,
                        f"{level} module {module} imports {alias.name!r} "
                        f"from {target_level} module {target}; not on the "
                        "registered boundary surface",
                        alias.name,
                    )

        # ---- forbidden symbol references -----------------------------
        symbol: str | None = None
        if isinstance(node, ast.Name) and node.id in forbidden:
            symbol = node.id
        elif isinstance(node, ast.Attribute) and node.attr in forbidden:
            symbol = node.attr
        elif isinstance(node, ast.arg) and node.arg in forbidden:
            symbol = node.arg
        elif isinstance(node, ast.keyword) and node.arg in forbidden:
            symbol = node.arg
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in forbidden
        ):
            symbol = node.name
        if symbol is not None:
            kind = (
                "enclave-internal member"
                if symbol in ENCLAVE_INTERNALS
                else "key/plaintext-bearing symbol"
            )
            report(
                RULE_FORBIDDEN_SYMBOL,
                node,
                f"{level} module {module} references {kind} {symbol!r}",
                symbol,
            )

        # ---- ecall surface -------------------------------------------
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ecall"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            name = node.args[0].value
            if name not in ECALL_CONTRACTS:
                report(
                    RULE_UNKNOWN_ECALL,
                    node,
                    f"ecall {name!r} is not a registered enclave entry "
                    "point (see leakage.ECALL_CONTRACTS)",
                    name,
                )

    return findings
