"""Attested client/server network layer (deployment topology of §3.1).

The paper's architecture places the application + trusted proxy in the data
owner's realm and the DBMS + enclave at an untrusted DBaaS provider.
In-process deployments wire the two directly; this package carries the same
calls over real TCP sockets:

- :mod:`repro.net.protocol` — versioned, length-prefixed binary frames
  (hello / attest / provision / query / result / error) with a typed codec
  for plans, results and encrypted builds. No pickle: only registered types
  decode, so a malicious peer cannot instantiate arbitrary objects.
- :mod:`repro.net.server` — an asyncio TCP server fronting one
  :class:`~repro.server.dbms.EncDBDBServer` with concurrent per-connection
  sessions, admission control, and serialized enclave ecalls.
- :mod:`repro.net.client` — the remote data owner and remote trusted proxy:
  attestation + ``SKDB`` provisioning through the DH secure channel over
  sockets, then plain SQL with client-side plan encryption and result
  decryption. The wire carries only ciphertext for encrypted columns.
- :mod:`repro.net.errors` — redaction of server-side exceptions into typed
  wire error frames (no stack traces, no plaintext values).
"""

# Re-exports resolve lazily so that the pure-data :mod:`repro.net.verbs`
# stays importable without the socket/DBMS stack (and without numpy): the
# static analyzer reads the verb table and must not execute what it audits.
_LAZY_EXPORTS = {
    "PROTOCOL_VERSION": "repro.net.protocol",
    "FrameType": "repro.net.protocol",
    "NetConnection": "repro.net.client",
    "RemoteDataOwner": "repro.net.client",
    "RemoteProxy": "repro.net.client",
    "RemoteServer": "repro.net.client",
    "RetryPolicy": "repro.net.client",
    "connect_system": "repro.net.client",
    "NetServer": "repro.net.server",
    "ServerThread": "repro.net.server",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.net' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = sorted(_LAZY_EXPORTS)
