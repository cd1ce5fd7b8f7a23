"""The ecall leakage contracts stay in sync with the runtime.

:mod:`repro.analysis.leakage` declares, as data, what every ecall may
reveal, and its ``ECALL_CONTRACTS`` keys are the one registry of ecall
names. One test pins them against the live enclave from both directions:
an ecall without a contract cannot ship, and a contract for a retired
entry point cannot linger. Wire verbs carry their contract as fields of
``repro.net.verbs.VERBS`` — there is nothing to drift — and the table
itself is held by ``tests/net/test_verbs.py``.
"""

from __future__ import annotations

from repro.analysis.leakage import ECALL_CONTRACTS
from repro.encdict.enclave_app import EncDBDBEnclave


def test_contracts_cover_the_live_enclave_surface():
    assert set(ECALL_CONTRACTS) == set(EncDBDBEnclave().ecall_names())


def test_contracts_declare_observables():
    for name, contract in ECALL_CONTRACTS.items():
        assert contract.name == name
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
