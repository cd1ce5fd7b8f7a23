"""The leakage-contract registries stay in sync with the runtime.

:mod:`repro.analysis.leakage` declares, as data, what every ecall and every
wire verb may reveal. These tests pin the ecall half against the live
enclave from both directions: an ecall without a contract cannot ship, and
a contract for a retired entry point cannot linger. The verb half is a
comprehension over ``repro.net.verbs.VERBS`` — there is nothing to drift —
and the table itself is held by ``tests/net/test_verbs.py``.
"""

from __future__ import annotations

from repro.analysis.leakage import ECALL_CONTRACTS, VERB_CONTRACTS
from repro.analysis.trustmap import REGISTERED_ECALLS
from repro.encdict.enclave_app import EncDBDBEnclave


def test_every_registered_ecall_has_a_contract():
    assert set(ECALL_CONTRACTS) == set(REGISTERED_ECALLS)


def test_contracts_cover_the_live_enclave_surface():
    assert set(ECALL_CONTRACTS) == set(EncDBDBEnclave().ecall_names())


def test_contracts_declare_observables_and_kind():
    for registry, kind in ((ECALL_CONTRACTS, "ecall"), (VERB_CONTRACTS, "verb")):
        for name, contract in registry.items():
            assert contract.name == name
            assert contract.kind == kind
            # Every contract states *what* the provider observes — an empty
            # observables string would be a contract in name only.
            assert contract.observables.strip()


def test_the_analyzer_reads_the_verb_table_without_running_the_net_stack():
    """``python -m repro.analysis`` runs in CI's lint job with nothing but
    the standard library installed: reading ``repro.net.verbs`` must not
    drag in the socket/DBMS stack (and its numpy) it is there to audit."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in ("numpy", "cryptography"):
                    raise ModuleNotFoundError(name)

        sys.meta_path.insert(0, Block())
        from repro.analysis.__main__ import main
        code = main(["src"])
        loaded = [m for m in sys.modules if m.startswith("repro.")]
        audited = [m for m in loaded if not m.startswith("repro.analysis")]
        assert sorted(audited) == ["repro.exceptions", "repro.net", "repro.net.verbs"], audited
        raise SystemExit(code)
        """
    )
    repo = __import__("pathlib").Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": ""},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr[-2000:]
