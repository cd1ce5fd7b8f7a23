"""Trust-boundary pass: each seeded violation in the bad fixture is found,
and clean untrusted code produces nothing."""

from __future__ import annotations

from repro.analysis.engine import analyze_source
from repro.analysis.findings import (
    RULE_BOUNDARY_IMPORT,
    RULE_FORBIDDEN_SYMBOL,
    RULE_UNKNOWN_ECALL,
)


def _active(report, rule):
    return [f for f in report.findings if f.rule == rule and not f.suppressed]


def test_bad_boundary_fixture_is_fully_reported(analyze_fixture):
    report = analyze_fixture("bad_boundary.py")
    assert report.module == "repro.columnstore.evil_boundary"

    imports = _active(report, RULE_BOUNDARY_IMPORT)
    imported = {f.symbol for f in imports}
    # wholesale trusted-module import + two off-surface key symbols
    assert "repro.sgx.enclave" in imported
    assert "derive_column_key" in imported
    assert "pae_gen" in imported
    # the registered surface symbol must NOT be flagged
    assert "EnclaveHost" not in imported

    symbols = {f.symbol for f in _active(report, RULE_FORBIDDEN_SYMBOL)}
    assert "SKDB" in symbols
    assert "_protected" in symbols

    ecalls = _active(report, RULE_UNKNOWN_ECALL)
    assert [f.symbol for f in ecalls] == ["read_master_key"]


def test_registered_ecall_and_surface_import_are_clean():
    source = (
        "from repro.sgx.enclave import EnclaveHost\n"
        "from repro.encdict.enclave_app import EncDBDBEnclave\n"
        "def go(host):\n"
        "    return host.ecall('dict_search', [])\n"
    )
    findings = analyze_source(
        source, module="repro.server.dbms", path="dbms.py"
    )
    assert findings == []


def test_trusted_modules_are_unrestricted():
    source = "from repro.crypto.kdf import derive_column_key\nSKDB = b'k'\n"
    findings = analyze_source(
        source, module="repro.sgx.enclave", path="enclave.py"
    )
    assert findings == []


def test_type_checking_imports_are_exempt():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.encdict.builder import encdb_build\n"
    )
    findings = analyze_source(
        source, module="repro.columnstore.column", path="column.py"
    )
    assert findings == []


def test_explicitly_public_submodule_import_is_allowed():
    source = "from repro import exceptions\n"
    findings = analyze_source(
        source, module="repro.net.errors", path="errors.py"
    )
    assert findings == []


def test_owner_may_hold_keys_but_not_enclave_internals():
    source = (
        "from repro.crypto.pae import pae_gen\n"
        "SKDB = pae_gen()\n"
        "def peek(enclave):\n"
        "    return enclave._protected\n"
    )
    findings = analyze_source(
        source, module="repro.client.owner", path="owner.py"
    )
    assert {f.rule for f in findings} == {RULE_FORBIDDEN_SYMBOL}
    assert {f.symbol for f in findings} == {"_protected"}
