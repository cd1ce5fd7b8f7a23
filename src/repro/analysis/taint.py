"""Plaintext-taint lint (pass 4, PR 10).

An interprocedural, summary-based taint pass over one module: values
produced by crypto *sources* (PAE ``decrypt``/``decrypt_many`` output,
``unseal``-ed blobs, secure-channel ``receive`` payloads, derived keys,
the enclave's protected store) are tracked through assignments, container
construction, f-strings, arithmetic, and local calls; the pass fails
closed when a tainted value reaches an observable *sink* — wire frame
encoders, log/print output, exception messages, ambient JSON — without a
sanctioned *sanitizer* (PAE encrypt, sealing, digests, the ``net.errors``
redaction helpers, the dictionary searcher whose ordinal output is the
declared leakage).

Design notes
============

- **Within-module interprocedural.** Function summaries (does it return
  taint unconditionally? does taint flow from arguments to the return
  value? does an argument reach a sink inside?) are computed to a
  fixpoint over the module's own functions, keyed by bare name so
  ``self._helper(x)`` resolves to the sibling method. Cross-module calls
  fall back to name-based source/sanitizer classification; an unknown
  call propagates taint from its arguments (fail closed).
- **Comparisons do not propagate.** The boolean of ``plaintext <= bound``
  and the ordinal positions derived from it *are* the per-kind declared
  search leakage (DESIGN.md §4c, §15); tracking them would flag every
  line of the dictionary search. The runtime leak oracle — not this
  pass — is what bounds that channel.
- **Sinks are trust-level aware.** ``owner`` modules legitimately print
  decrypted results (the CLI, the proxy's result rendering), so only the
  wire-encoder sinks apply there; restricted and TCB modules get the
  full sink set, and an ``enclave`` module additionally must not return
  taint straight out of an ``@ecall`` (that is the boundary itself).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import RULE_PLAINTEXT_TAINT, Finding
from repro.analysis.trustmap import (
    RESTRICTED_LEVELS,
    TRUST_CRYPTO,
    TRUST_ENCLAVE,
    TRUST_OWNER,
    trust_level,
)

#: Calls whose return value is plaintext derived from ciphertext or a
#: protected store — the taint sources.
PLAINTEXT_SOURCES = frozenset(
    {
        "decrypt",
        "decrypt_many",
        "unseal",
        "receive",  # SecureChannel.receive — decrypted channel payload
        "protected_get",  # enclave protected store (SKDB et al.)
    }
)

#: Calls whose return value is key material or key-equivalent seed data.
KEY_SOURCES = frozenset(
    {
        "pae_gen",
        "derive_column_key",
        "derive_rotation_seed",
        "hkdf_sha256",
    }
)

SOURCES = PLAINTEXT_SOURCES | KEY_SOURCES

#: Calls that launder taint by construction: authenticated encryption,
#: sealing, fixed-width digests, the redaction helpers, and the
#: dictionary searcher / EncDB builder whose outputs carry only each
#: kind's *declared* leakage.
SANITIZERS = frozenset(
    {
        "encrypt",
        "encrypt_many",
        "seal",
        "scrub_message",
        "redact_exception",
        "digest",
        "hexdigest",
        "encdb_build",
        "search",
        "plain_search",
        "len",
        "id",
        "bool",
        "isinstance",
        "hash",
    }
)

#: Logger-style attribute calls treated as log sinks.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

#: Wire-encoder / socket sinks — apply at every trust level: nothing
#: tainted may be framed or written to a socket unencrypted.
_WIRE_SINKS = frozenset({"encode_payload", "encode_frame", "sendall"})

_MAX_FIXPOINT_ROUNDS = 6


@dataclass
class _Summary:
    """Taint behaviour of one module-local function."""

    returns_taint: bool = False  # returns taint with clean arguments
    propagates: bool = False  # tainted argument -> tainted return
    arg_sink: bool = False  # tainted argument reaches a sink inside


@dataclass
class _FunctionInfo:
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_method: bool
    is_ecall: bool
    summary: _Summary = field(default_factory=_Summary)


def _decorator_name(dec: ast.expr) -> str | None:
    if isinstance(dec, ast.Name):
        return dec.id
    if isinstance(dec, ast.Attribute):
        return dec.attr
    if isinstance(dec, ast.Call):
        return _decorator_name(dec.func)
    return None


def is_ecall_def(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(_decorator_name(dec) == "ecall" for dec in node.decorator_list)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _target_path(node: ast.expr) -> str | None:
    """Dotted path of an assignment target (``x``, ``self.key``)."""
    parts: list[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            return ".".join(reversed(parts))
        else:
            return None


class _FunctionAnalysis:
    """One intra-procedural run: propagate taint, record sink hits."""

    def __init__(
        self,
        info: _FunctionInfo,
        functions: dict[str, _FunctionInfo],
        *,
        params_tainted: bool,
        level: str,
    ) -> None:
        self.info = info
        self.functions = functions
        self.level = level
        self.tainted: set[str] = set()
        self.returns_taint = False
        self.sink_hits: list[tuple[ast.AST, str]] = []
        if params_tainted:
            args = info.node.args
            params = [
                a.arg
                for a in (
                    args.posonlyargs + args.args + args.kwonlyargs
                )
            ]
            if info.is_method and params and params[0] in ("self", "cls"):
                params = params[1:]
            self.tainted.update(params)

    # -- expression taint ---------------------------------------------

    def taint_of(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Constant):
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            path = _target_path(node)
            if path is not None and path in self.tainted:
                return True
            inner = node.value if isinstance(node, ast.Attribute) else node.value
            tainted = self.taint_of(inner)
            if isinstance(node, ast.Subscript):
                tainted = tainted or self.taint_of(node.slice)
            return tainted
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        if isinstance(node, ast.Compare):
            # Declared search leakage; see module docstring.
            self.taint_of(node.left)
            for comparator in node.comparators:
                self.taint_of(comparator)
            return False
        if isinstance(node, ast.BoolOp):
            return any(self.taint_of(v) for v in node.values)
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left) or self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.IfExp):
            self.taint_of(node.test)
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, ast.JoinedStr):
            return any(self.taint_of(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.taint_of(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(self.taint_of(k) for k in node.keys if k is not None) or any(
                self.taint_of(v) for v in node.values
            )
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._taint_of_comprehension(node.elt, node.generators)
        if isinstance(node, ast.DictComp):
            tainted_iter = self._bind_generators(node.generators)
            return (
                tainted_iter
                or self.taint_of(node.key)
                or self.taint_of(node.value)
            )
        if isinstance(node, ast.NamedExpr):
            tainted = self.taint_of(node.value)
            path = _target_path(node.target)
            if path is not None:
                if tainted:
                    self.tainted.add(path)
                else:
                    self.tainted.discard(path)
            return tainted
        if isinstance(node, ast.Lambda):
            return False
        # Anything unmodelled: conservatively untainted but walk children
        # so nested calls still get sink-checked.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.taint_of(child)
        return False

    def _bind_generators(self, generators: list[ast.comprehension]) -> bool:
        any_tainted = False
        for gen in generators:
            if self.taint_of(gen.iter):
                any_tainted = True
                path = _target_path(gen.target)
                if path is not None:
                    self.tainted.add(path)
                elif isinstance(gen.target, ast.Tuple):
                    for elt in gen.target.elts:
                        elt_path = _target_path(elt)
                        if elt_path is not None:
                            self.tainted.add(elt_path)
            for cond in gen.ifs:
                self.taint_of(cond)
        return any_tainted

    def _taint_of_comprehension(
        self, elt: ast.expr, generators: list[ast.comprehension]
    ) -> bool:
        self._bind_generators(generators)
        return self.taint_of(elt)

    def _taint_of_call(self, node: ast.Call) -> bool:
        name = _call_name(node)
        arg_taints = [self.taint_of(a) for a in node.args]
        kw_taints = [self.taint_of(k.value) for k in node.keywords]
        any_arg_tainted = any(arg_taints) or any(kw_taints)
        # receiver taint: pae.decrypt is a source regardless; obj.method(x)
        # on a tainted obj yields taint (str methods on plaintext, etc.)
        receiver_tainted = False
        if isinstance(node.func, ast.Attribute):
            receiver_tainted = self.taint_of(node.func.value)

        self._check_call_sinks(node, name, arg_taints, kw_taints)

        if name in SANITIZERS:
            return False
        if name in SOURCES:
            return True
        info = self.functions.get(name) if name else None
        if info is not None:
            summary = info.summary
            if summary.arg_sink and any_arg_tainted:
                self.sink_hits.append(
                    (
                        node,
                        f"tainted argument flows into {name}(), which passes "
                        "it to an observable sink",
                    )
                )
            if summary.returns_taint:
                return True
            if summary.propagates and (any_arg_tainted or receiver_tainted):
                return True
            return False
        # Unknown callee: taint flows through (fail closed).
        return any_arg_tainted or receiver_tainted

    # -- sinks ---------------------------------------------------------

    def _check_call_sinks(
        self,
        node: ast.Call,
        name: str | None,
        arg_taints: list[bool],
        kw_taints: list[bool],
    ) -> None:
        if name is None:
            return
        any_tainted = any(arg_taints) or any(kw_taints)
        if not any_tainted:
            return
        if name in _WIRE_SINKS:
            self.sink_hits.append(
                (node, f"plaintext-derived value reaches wire sink {name}()")
            )
            return
        if self.level == TRUST_OWNER:
            return  # owner code legitimately renders decrypted results
        if name == "print":
            self.sink_hits.append(
                (node, "plaintext-derived value reaches print() output")
            )
        elif name in ("dump", "dumps"):
            self.sink_hits.append(
                (node, f"plaintext-derived value reaches json.{name}()")
            )
        elif name in _LOG_METHODS and isinstance(node.func, ast.Attribute):
            root = node.func.value
            root_name = root.id if isinstance(root, ast.Name) else getattr(root, "attr", "")
            if "log" in str(root_name).lower():
                self.sink_hits.append(
                    (node, f"plaintext-derived value reaches log call .{name}()")
                )

    # -- statements ----------------------------------------------------

    def run(self) -> None:
        # Two passes approximate loop-carried taint without a full CFG.
        for _ in range(2):
            before = set(self.tainted)
            for stmt in self.info.node.body:
                self._visit_stmt(stmt)
            if self.tainted == before:
                break

    def _assign(self, target: ast.expr, tainted: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, tainted)
            return
        path = _target_path(target)
        if path is None:
            return
        if tainted:
            self.tainted.add(path)
        else:
            self.tainted.discard(path)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tainted = self.taint_of(stmt.value)
            for target in stmt.targets:
                self._assign(target, tainted)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.taint_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            tainted = self.taint_of(stmt.value)
            path = _target_path(stmt.target)
            if path is not None and (tainted or path in self.tainted):
                self.tainted.add(path)
        elif isinstance(stmt, ast.Return):
            if self.taint_of(stmt.value):
                self.returns_taint = True
                if self.level == TRUST_ENCLAVE and self.info.is_ecall:
                    self.sink_hits.append(
                        (
                            stmt,
                            f"@ecall {self.info.node.name!r} returns a "
                            "plaintext/key-derived value across the enclave "
                            "boundary",
                        )
                    )
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None and self.level != TRUST_OWNER:
                exc = stmt.exc
                tainted = False
                if isinstance(exc, ast.Call):
                    tainted = any(self.taint_of(a) for a in exc.args) or any(
                        self.taint_of(k.value) for k in exc.keywords
                    )
                else:
                    tainted = self.taint_of(exc)
                if tainted:
                    self.sink_hits.append(
                        (
                            stmt,
                            "plaintext-derived value reaches an exception "
                            "message (crosses to the provider unredacted)",
                        )
                    )
        elif isinstance(stmt, ast.Expr):
            self.taint_of(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.taint_of(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self.taint_of(stmt.iter):
                self._assign(stmt.target, True)
            for sub in stmt.body + stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.While):
            self.taint_of(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tainted = self.taint_of(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tainted)
            for sub in stmt.body:
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._visit_stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._visit_stmt(sub)
            for sub in stmt.orelse + stmt.finalbody:
                self._visit_stmt(sub)
        # Nested function/class defs are analyzed separately.


def _collect_functions(tree: ast.AST) -> dict[str, _FunctionInfo]:
    functions: dict[str, _FunctionInfo] = {}

    def visit(node: ast.AST, inside_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(
                    child.name,
                    _FunctionInfo(
                        node=child,
                        is_method=inside_class,
                        is_ecall=is_ecall_def(child),
                    ),
                )
                visit(child, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, True)
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                visit(child, inside_class)

    visit(tree, False)
    return functions


def check(tree: ast.AST, *, module: str, path: str) -> list[Finding]:
    level = trust_level(module)
    functions = _collect_functions(tree)
    if not functions:
        return []

    # Fixpoint over summaries: clean-args run decides returns_taint,
    # tainted-args run decides propagates / arg_sink.
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for info in functions.values():
            clean = _FunctionAnalysis(
                info, functions, params_tainted=False, level=level
            )
            clean.run()
            dirty = _FunctionAnalysis(
                info, functions, params_tainted=True, level=level
            )
            dirty.run()
            summary = _Summary(
                returns_taint=clean.returns_taint,
                propagates=dirty.returns_taint and not clean.returns_taint,
                arg_sink=bool(dirty.sink_hits) and not bool(clean.sink_hits),
            )
            if summary != info.summary:
                info.summary = summary
                changed = True
        if not changed:
            break

    findings: list[Finding] = []
    seen: set[tuple[int, str]] = set()
    applicable = level in RESTRICTED_LEVELS or level in (
        TRUST_ENCLAVE,
        TRUST_CRYPTO,
        TRUST_OWNER,
    )
    if not applicable:  # pragma: no cover - every level is applicable today
        return []
    for info in functions.values():
        clean = _FunctionAnalysis(info, functions, params_tainted=False, level=level)
        clean.run()
        for node, message in clean.sink_hits:
            line = getattr(node, "lineno", 1)
            key = (line, message)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    rule=RULE_PLAINTEXT_TAINT,
                    module=module,
                    path=path,
                    line=line,
                    message=message + " without a sanctioned sanitizer",
                )
            )
    findings.sort(key=lambda f: f.line)
    return findings
