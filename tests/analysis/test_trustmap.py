"""The trust map must stay in sync with the runtime it describes."""

from __future__ import annotations

import importlib

from repro.analysis import trustmap
from repro.analysis.trustmap import (
    MODULE_TRUST,
    TRUST_CRYPTO,
    TRUST_ENCLAVE,
    TRUST_OWNER,
    TRUST_PUBLIC,
    TRUST_UNTRUSTED,
    allowed_symbols,
    trust_level,
)


def test_trust_levels_fail_closed():
    assert trust_level("repro.columnstore.column") == TRUST_UNTRUSTED
    assert trust_level("repro.sql.executor") == TRUST_UNTRUSTED
    assert trust_level("repro.sgx.enclave") == TRUST_ENCLAVE
    assert trust_level("repro.encdict.enclave_app") == TRUST_ENCLAVE
    assert trust_level("repro.crypto.pae") == TRUST_CRYPTO
    assert trust_level("repro.client.owner") == TRUST_OWNER
    assert trust_level("repro.exceptions") == TRUST_PUBLIC
    # an unclassified new subpackage is untrusted until mapped
    assert trust_level("repro.shiny_new_subsystem") == TRUST_UNTRUSTED
    # the root entry covers only the facade module itself
    assert trust_level("repro") == TRUST_OWNER


def test_every_trust_level_is_known():
    levels = {
        TRUST_ENCLAVE,
        TRUST_CRYPTO,
        TRUST_OWNER,
        TRUST_UNTRUSTED,
        TRUST_PUBLIC,
    }
    assert set(MODULE_TRUST.values()) <= levels


def test_untrusted_surface_is_narrow():
    surface = allowed_symbols(TRUST_UNTRUSTED, "repro.sgx.enclave")
    assert "EnclaveHost" in surface
    assert "_protected" not in surface
    # key-less crypto interface only: no key generation, no KDF
    assert "pae_gen" not in allowed_symbols(TRUST_UNTRUSTED, "repro.crypto.pae")
    assert allowed_symbols(TRUST_UNTRUSTED, "repro.crypto.kdf") == frozenset()


def test_owner_surface_extends_untrusted_surface():
    untrusted = allowed_symbols(TRUST_UNTRUSTED, "repro.sgx.channel")
    owner = allowed_symbols(TRUST_OWNER, "repro.sgx.channel")
    assert untrusted < owner
    assert "SecureChannel" in owner and "SecureChannel" not in untrusted


def test_forbidden_sets_do_not_overlap_surfaces():
    for module, symbols in trustmap.UNTRUSTED_SURFACE.items():
        assert not symbols & trustmap.KEY_SYMBOLS, module
        assert not symbols & trustmap.ENCLAVE_INTERNALS, module


def test_every_surface_symbol_exists_on_its_module():
    """A surface entry names a real attribute: moving or deleting a trusted
    symbol must update the surface in the same change."""
    stale = [
        f"{module}.{symbol}"
        for surface in (trustmap.UNTRUSTED_SURFACE, trustmap.OWNER_SURFACE)
        for module, symbols in surface.items()
        for symbol in sorted(symbols)
        if not hasattr(importlib.import_module(module), symbol)
    ]
    assert stale == []
