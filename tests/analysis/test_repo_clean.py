"""The repository's own source tree must lint clean — the CI gate."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.engine import analyze_paths
from repro.analysis.findings import RULE_BAD_SUPPRESSION

SRC_ROOT = Path(__file__).parents[2] / "src"


def test_src_tree_has_zero_active_findings():
    report = analyze_paths([SRC_ROOT], root=SRC_ROOT)
    assert report.files, "source tree not found"
    active = report.active
    rendered = "\n".join(f.render() for f in active)
    assert active == [], f"linter findings in src/:\n{rendered}"


def test_every_suppression_in_src_carries_a_justification():
    report = analyze_paths([SRC_ROOT], root=SRC_ROOT)
    suppressed = report.suppressed
    assert suppressed, "expected the documented suppressions to exist"
    for finding in suppressed:
        assert finding.justification, finding.render()
    assert not [f for f in report.findings if f.rule == RULE_BAD_SUPPRESSION]


def test_the_column_store_never_holds_an_enclave_handle():
    """``columnstore/`` stores ciphertext; the boundary is crossed from the
    DBMS front end, the executor and the migration runner only. No module
    under ``repro.columnstore`` may import from ``repro.sgx`` (function-level
    imports included)."""
    offenders = []
    for path in sorted((SRC_ROOT / "repro" / "columnstore").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {module}"
                for module in modules
                if module == "repro.sgx" or module.startswith("repro.sgx.")
            ]
    assert offenders == []
