"""The declarative trust map of the EncDBDB reproduction.

EncDBDB's security argument (paper §3-§4, DESIGN.md §8) is that the
untrusted DBMS reaches secrets only through the enclave's registered ecall
surface. This module writes that argument down as data: every ``repro``
module is assigned a trust level, trusted modules export an explicit symbol
surface, and the registered ecall names are pinned. The passes in
:mod:`repro.analysis.boundary` machine-check source code against this map;
``tests/analysis`` asserts the map itself stays in sync with the runtime
(e.g. :data:`REGISTERED_ECALLS` vs. ``EncDBDBEnclave.ecall_names()``).

Trust levels
============

- ``enclave`` — code that runs inside the (simulated) enclave or implements
  its isolation substrate. May import anything; IS the TCB.
- ``crypto``  — key material and primitives (``repro.crypto``). TCB.
- ``owner``   — the data owner / trusted proxy side (paper Fig. 2 left):
  legitimately holds ``SKDB`` and builds plaintext columns, but must still
  never touch enclave internals. May import ``crypto`` freely plus the
  owner surface of enclave modules.
- ``untrusted`` — the DBaaS provider side: column store, SQL engine,
  server, network front end, benchmarks. May import trusted modules only
  through :data:`UNTRUSTED_SURFACE` and must never reference the forbidden
  symbols below.
- ``public``  — side-effect-free modules (exceptions, tuning knobs, cost
  accounting, wire-safe data types) importable from anywhere; their own
  code is held to the same rules as ``untrusted``.

Unmapped modules default to ``untrusted`` — the map fails closed.
"""

from __future__ import annotations

TRUST_ENCLAVE = "enclave"
TRUST_CRYPTO = "crypto"
TRUST_OWNER = "owner"
TRUST_UNTRUSTED = "untrusted"
TRUST_PUBLIC = "public"

#: Module-prefix -> trust level. Longest prefix wins; the bare ``"repro"``
#: entry applies to the package root module only (never as a fallback), so
#: a new unmapped subpackage lands in ``untrusted`` until classified here.
MODULE_TRUST: dict[str, str] = {
    "repro": TRUST_OWNER,  # package facade (lazily re-exports the system API)
    "repro.exceptions": TRUST_PUBLIC,
    "repro.runtime": TRUST_PUBLIC,
    "repro.analysis": TRUST_OWNER,  # dev/CI tooling; runs owner-side only
    "repro.cli": TRUST_OWNER,
    "repro.client": TRUST_OWNER,
    # Cluster layer (PR 7): coordinator/router/loadgen run in the data
    # owner's realm — they hold connections that carry provisioning and
    # relay the enclave-to-enclave key replication, but never key material
    # in the clear. The shard map is pure topology data (endpoints and
    # partition ranges), importable from anywhere.
    "repro.cluster": TRUST_OWNER,  # package facade
    "repro.cluster.coordinator": TRUST_OWNER,
    "repro.cluster.router": TRUST_OWNER,
    "repro.cluster.loadgen": TRUST_OWNER,
    "repro.cluster.shardmap": TRUST_PUBLIC,
    "repro.crypto": TRUST_CRYPTO,
    "repro.sgx": TRUST_ENCLAVE,
    "repro.sgx.costs": TRUST_PUBLIC,
    "repro.sgx.memory": TRUST_PUBLIC,
    "repro.sgx.attestation": TRUST_PUBLIC,
    "repro.encdict": TRUST_OWNER,  # package facade re-exporting EncDB helpers
    "repro.encdict.enclave_app": TRUST_ENCLAVE,
    "repro.encdict.search": TRUST_ENCLAVE,
    "repro.encdict.kernels": TRUST_ENCLAVE,  # vectorized search kernels
    "repro.encdict.builder": TRUST_OWNER,
    "repro.encdict.pipeline": TRUST_OWNER,
    "repro.encdict.buckets": TRUST_OWNER,
    "repro.encdict.encode": TRUST_OWNER,
    "repro.encdict.options": TRUST_PUBLIC,
    "repro.encdict.dictionary": TRUST_PUBLIC,  # ciphertext containers only
    "repro.encdict.attrvect": TRUST_UNTRUSTED,
    "repro.columnstore": TRUST_UNTRUSTED,
    # Online rotation (PR 8): the migration engine runs on the DBaaS side —
    # it schedules shadow rebuilds and swaps ciphertext partitions, but all
    # re-encryption happens inside the enclave via the rotate_* ecalls, so
    # the module never names key material.
    "repro.migrate": TRUST_UNTRUSTED,  # package facade
    "repro.migrate.plan": TRUST_UNTRUSTED,
    "repro.migrate.runner": TRUST_UNTRUSTED,
    "repro.sql": TRUST_UNTRUSTED,
    "repro.server": TRUST_UNTRUSTED,
    "repro.net": TRUST_OWNER,  # package facade re-exporting client helpers
    "repro.net.server": TRUST_UNTRUSTED,
    "repro.net.protocol": TRUST_UNTRUSTED,
    "repro.net.errors": TRUST_UNTRUSTED,
    "repro.net.verbs": TRUST_PUBLIC,  # the verb table: pure data
    "repro.net.client": TRUST_OWNER,
    "repro.security": TRUST_UNTRUSTED,
    # Benchmark workloads run against the *public* query API but execute on
    # provider hardware in the evaluation topology; held to untrusted rules.
    "repro.workloads": TRUST_UNTRUSTED,  # package facade
    "repro.workloads.datasets": TRUST_UNTRUSTED,
    "repro.workloads.evaluate": TRUST_UNTRUSTED,
    "repro.workloads.generator": TRUST_UNTRUSTED,
    "repro.workloads.queries": TRUST_UNTRUSTED,
    "repro.workloads.tpch": TRUST_UNTRUSTED,
    "repro.bench": TRUST_UNTRUSTED,
}

#: Levels whose own code is checked under the untrusted import/symbol rules.
RESTRICTED_LEVELS = frozenset({TRUST_UNTRUSTED, TRUST_PUBLIC})

#: Levels whose exports untrusted code may only reach through a surface.
TRUSTED_LEVELS = frozenset({TRUST_ENCLAVE, TRUST_CRYPTO, TRUST_OWNER})

#: Symbols untrusted/public modules may import from trusted modules — the
#: registered boundary surface. Everything else is a violation. The surface
#: deliberately contains only: the ecall host handle, enclave-load and
#: attestation artifacts, fast-path configuration, wire-safe ciphertext
#: containers, and key-less crypto interfaces (no ``pae_gen``, no KDF).
UNTRUSTED_SURFACE: dict[str, frozenset[str]] = {
    "repro.crypto.drbg": frozenset({"HmacDrbg"}),
    "repro.crypto.pae": frozenset(
        {
            "Pae",
            "default_pae",
            "PurePythonPae",
            "LibraryPae",
            "PAE_KEY_BYTES",
            "PAE_NONCE_BYTES",
            "PAE_TAG_BYTES",
            "PAE_OVERHEAD_BYTES",
        }
    ),
    # the host loads and measures the enclave binary, so the class object
    # and its measurement helper sit on the surface; *state* stays behind
    # the ecall interface (ENCLAVE_INTERNALS below).
    "repro.sgx.enclave": frozenset({"EnclaveHost", "Enclave", "measure_enclave_class"}),
    "repro.sgx.cache": frozenset({"FastPathConfig", "CacheStats"}),
    "repro.sgx.channel": frozenset({"ChannelOffer"}),
    "repro.encdict.enclave_app": frozenset({"EncDBDBEnclave"}),
    "repro.encdict.search": frozenset(
        {"OrdinalRange", "SearchResult", "DUMMY_RANGE", "ORDINAL_BOUND_BYTES"}
    ),
    "repro.encdict.builder": frozenset({"BuildResult", "BuildStats"}),
}

#: Additional symbols ``owner``-level modules may import from ``enclave``
#: modules (the data owner runs attestation, the secure channel, and the
#: proxy-side query encryption — paper §4.2 steps 1-5).
OWNER_SURFACE: dict[str, frozenset[str]] = {
    "repro.sgx.channel": frozenset({"SecureChannel"}),
    "repro.sgx.cache": frozenset({"EnclaveLruCache"}),  # analysis tooling
    "repro.encdict.enclave_app": frozenset(
        {"encrypt_search_range", "decode_group_frame", "AGGREGATE_KEY_COLUMN"}
    ),
    "repro.encdict.search": frozenset({"plain_search", "DictionarySearcher"}),
}

#: Key/plaintext-bearing identifiers untrusted/public code must never name
#: (as a variable, attribute, parameter, or imported symbol). String
#: literals and comments are naturally exempt — the paper's protocol names
#: (``provision_master_key``) travel as strings through ``ecall``.
KEY_SYMBOLS = frozenset(
    {
        "SKDB",
        "skdb",
        "_skdb",
        "master_key",
        "_MASTER_KEY",
        "pae_gen",
        "derive_column_key",
        "derive_rotation_seed",
        "hkdf_sha256",
        "seal",
        "unseal",
        "sealing_key",
    }
)

#: Enclave-internal members nothing outside the enclave (owner included)
#: may reference: the protected store, dispatch internals, and in-enclave
#: randomness. Reaching these from host code would be reading EPC memory.
ENCLAVE_INTERNALS = frozenset(
    {
        "protected_get",
        "protected_set",
        "protected_has",
        "_protected",
        "_dispatch",
        "_require_inside",
        "enclave_random_bytes",
        "enclave_randint",
    }
)

#: The registered ecall surface of :class:`repro.encdict.enclave_app.
#: EncDBDBEnclave`, pinned statically so the boundary pass can verify the
#: names untrusted code passes to ``EnclaveHost.ecall``. A test asserts this
#: tuple equals ``EncDBDBEnclave.ecall_names()`` — editing the enclave
#: without updating the map (or vice versa) fails CI.
REGISTERED_ECALLS: tuple[str, ...] = (
    "channel_offer",
    "channel_accept",
    "provision_master_key",
    "replicate_master_key",  # primary-side cluster key hand-off (PR 7)
    "is_provisioned",
    "seal_master_key",
    "restore_master_key",
    "dict_search",
    "dict_search_batch",
    "join_tokens",
    "reseal_delta",  # an INSERT's blobs, or the delta store at a key flip
    "rebuild_for_merge",
    "rotate_partition",  # online rotation shadow rebuild (PR 8)
    "aggregate_groups",  # ordinal-space GROUP BY / aggregates (PR 9)
)

#: Module prefixes whose builds must be reproducible from caller-provided
#: DRBGs (PR 4 determinism): ambient randomness here breaks bit-for-bit
#: parallel/serial identity and, worse, un-audited IV sourcing.
DETERMINISTIC_PREFIXES: tuple[str, ...] = (
    "repro.encdict",
    "repro.columnstore",
    "repro.crypto",
    "repro.sgx",
)

#: Plaintext-bearing symbols that must never appear in ``repro.net`` —
#: nothing that can hold or rebuild plaintext column data may become
#: serializable into a wire frame.
WIRE_PLAINTEXT_SYMBOLS = frozenset(
    {
        "encdb_build",
        "encdb_build_partitioned",
        "derive_partition_rngs",
        "split_column",
        "DictionaryEncodedColumn",
        "plain_search",
    }
)


def trust_level(module: str) -> str:
    """Resolve a dotted module name to its trust level (fail-closed)."""
    parts = module.split(".")
    for width in range(len(parts), 0, -1):
        prefix = ".".join(parts[:width])
        if prefix == "repro" and module != "repro":
            # The root entry describes the facade module itself, never a
            # fallback for unclassified subpackages.
            continue
        level = MODULE_TRUST.get(prefix)
        if level is not None:
            return level
    return TRUST_UNTRUSTED


def allowed_symbols(importer_level: str, imported_module: str) -> frozenset[str]:
    """Symbols ``importer_level`` code may import from ``imported_module``."""
    surface = UNTRUSTED_SURFACE.get(imported_module, frozenset())
    if importer_level == TRUST_OWNER:
        surface = surface | OWNER_SURFACE.get(imported_module, frozenset())
    return surface
