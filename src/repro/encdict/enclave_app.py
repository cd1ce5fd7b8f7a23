"""The EncDBDB enclave program.

This is the complete trusted interface of the system — the reproduction's
analogue of the paper's 1129-LOC C enclave. Its ecalls are:

- the secure-provisioning handshake (``channel_offer`` / ``channel_accept``
  / ``provision_master_key``), through which the data owner deploys
  ``SKDB`` after attesting the enclave (paper §4.2 step 2);
- ``seal_master_key`` / ``restore_master_key`` for persistence across
  enclave restarts without a new attestation round trip;
- ``dict_search``, the per-query entry point (§4.2 step 8): derives the
  per-column key, decrypts the encrypted range ``τ``, and runs the
  ``EnclDictSearch`` matching the dictionary's kind. One ecall per query;
  dictionary entries are pulled from untrusted memory one at a time, so
  enclave memory use is constant and independent of ``|D|`` (§5);
- ``reseal_delta`` and ``rebuild_for_merge`` for dynamic data (§4.3): an
  INSERT's values are opened and re-sealed under fresh IVs inside the
  enclave, one crossing per encrypted column of the statement (the same
  ecall moves the delta store across a key-rotation flip), and the periodic
  delta merge re-encrypts, re-rotates and re-shuffles so old and new main
  stores cannot be linked.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import Pae, default_pae
from repro.encdict.builder import BuildResult, encdb_build
from repro.encdict.dictionary import EncryptedDictionary
from repro.encdict.options import EncryptedDictionaryKind
from repro.encdict.search import (
    ORDINAL_BOUND_BYTES,
    DictionarySearcher,
    OrdinalRange,
    SearchResult,
)
from repro.exceptions import EnclaveSecurityError, QueryError
from repro.sgx.attestation import AttestationService
from repro.sgx.cache import EnclaveLruCache, FastPathConfig
from repro.sgx.channel import ChannelOffer, SecureChannelListener
from repro.sgx.enclave import Enclave, ecall
from repro.sgx.sealing import seal, unseal

_MASTER_KEY = "SKDB"
_CHANNEL = "provisioning-channel"
_LISTENER = "channel-listener"
_KEY_CACHE = "SKD-cache"

#: Pseudo-column name under which the per-table *aggregate transit key* is
#: derived (analytics pushdown, PR 9). '#' cannot appear in a SQL identifier,
#: so the derivation can never collide with a real column's ``SKD``.
AGGREGATE_KEY_COLUMN = "#aggregate"

_AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Upper bound on memoized ``(table, column) -> SKD`` derivations; far above
#: any realistic schema, it only guards against unbounded growth if a caller
#: streams made-up column names through the enclave.
_KEY_CACHE_MAX_ENTRIES = 512


def encrypt_search_range(pae: Pae, key: bytes, search: OrdinalRange) -> tuple[bytes, bytes]:
    """Proxy-side helper: build the encrypted range ``τ = (τ_s, τ_e)``.

    Start and end are encrypted individually with fresh random IVs, so the
    server cannot tell whether two queries touch the same bounds (§4.2
    step 5).
    """
    payload = search.to_bytes()
    return (
        pae.encrypt(key, payload[:ORDINAL_BOUND_BYTES]),
        pae.encrypt(key, payload[ORDINAL_BOUND_BYTES:]),
    )


# ----------------------------------------------------------------------
# Group-frame codec (analytics pushdown, PR 9)
# ----------------------------------------------------------------------
# A *group frame* is the fixed-shape unit in which aggregation results leave
# the enclave: one frame per result group, each PAE-encrypted under the
# table's aggregate transit key. Frame plaintext layout:
#
#   payload_len u32 | payload | zero pad to the uniform frame size
#   payload = dummy u8 | key_len u32 | key bytes | n_aggs u32
#             | per aggregate: present u8 | a s64 | b s64
#
# ``(a, b)`` is the mergeable state of one aggregate — COUNT/SUM/MIN/MAX in
# ``a``, AVG as the ``(sum, count)`` pair — so partials from different shards
# combine without re-decrypting rows. Every frame of a response shares one
# byte length, and the frame *count* is padded to a power of two with dummy
# frames, so the ciphertexts reveal only an upper bound on the group
# cardinality (DESIGN.md §14).


def encode_frame_payload(
    dummy: bool, key_bytes: bytes, states: Sequence[tuple[bool, int, int]]
) -> bytes:
    """Serialize one group frame's payload (pre-padding, pre-encryption)."""
    parts = [
        b"\x01" if dummy else b"\x00",
        len(key_bytes).to_bytes(4, "big"),
        key_bytes,
        len(states).to_bytes(4, "big"),
    ]
    for present, a, b in states:
        parts.append(b"\x01" if present else b"\x00")
        parts.append(int(a).to_bytes(8, "big", signed=True))
        parts.append(int(b).to_bytes(8, "big", signed=True))
    return b"".join(parts)


def decode_group_frame(
    plaintext: bytes,
) -> tuple[bool, bytes, list[tuple[bool, int, int]]]:
    """``(dummy, key_bytes, states)`` from one decrypted group frame."""
    length = int.from_bytes(plaintext[:4], "big")
    payload = plaintext[4 : 4 + length]
    dummy = payload[0] == 1
    key_len = int.from_bytes(payload[1:5], "big")
    key_bytes = payload[5 : 5 + key_len]
    cursor = 5 + key_len
    n_aggs = int.from_bytes(payload[cursor : cursor + 4], "big")
    cursor += 4
    states = []
    for _ in range(n_aggs):
        present = payload[cursor] == 1
        a = int.from_bytes(payload[cursor + 1 : cursor + 9], "big", signed=True)
        b = int.from_bytes(payload[cursor + 9 : cursor + 17], "big", signed=True)
        states.append((present, a, b))
        cursor += 17
    return dummy, key_bytes, states


def padded_frame_count(real_frames: int) -> int:
    """Next power of two ≥ max(1, real_frames): the padded wire frame count."""
    return 1 << (max(1, real_frames) - 1).bit_length()


class EncDBDBEnclave(Enclave):
    """The DBMS-side enclave holding ``SKDB`` and running dictionary searches."""

    def __init__(
        self,
        *,
        attestation: AttestationService | None = None,
        pae: Pae | None = None,
        rng: HmacDrbg | None = None,
        fastpath: FastPathConfig | None = None,
    ) -> None:
        super().__init__(rng=rng)
        self._attestation = attestation if attestation is not None else AttestationService()
        self._pae = pae if pae is not None else default_pae()
        # A bare enclave is the paper's: constant memory, no resident
        # plaintext. EncDBDBServer passes its sizing down; budget 0 reserves
        # no EPC and builds no cache object at all.
        cache_bytes = fastpath.dictionary_cache_bytes if fastpath is not None else 0
        self._entry_cache: EnclaveLruCache | None = (
            EnclaveLruCache(
                budget_bytes=cache_bytes, cost_model=self.cost_model, epc=self.epc
            )
            if cache_bytes
            else None
        )
        # Monotonic per-(table, column, partition) write counters. Not
        # secret: each bump corresponds to a write ecall the untrusted side
        # already observes. Partition granularity means rebuilding one
        # partition leaves every other partition's cached plaintext valid.
        self._column_epochs: dict[tuple[str, str, int], int] = {}
        self._searcher = DictionarySearcher(
            self._pae, self.cost_model, cache=self._entry_cache
        )

    # ------------------------------------------------------------------
    # Entry-cache bookkeeping
    # ------------------------------------------------------------------
    @property
    def entry_cache(self) -> EnclaveLruCache | None:
        """The decrypted-entry cache (``None`` at a budget of 0)."""
        return self._entry_cache

    def fastpath_stats(self) -> dict[str, int] | None:
        """Cache counters for benchmarks/tests; ``None`` without a cache."""
        return self._searcher.cache_stats()

    def fastpath_partition_usage(self) -> dict[tuple, int] | None:
        """EPC bytes the entry cache holds per (table, column, partition).

        Partition-granular accounting: shows which partitions' plaintext is
        resident and lets tests assert that evictions/invalidations are
        scoped to single partitions. ``None`` without a cache.
        """
        return self._searcher.partition_usage()

    def _epoch(self, table_name: str, column_name: str, partition_id: int) -> int:
        """The write epoch of one partition (0 until its first write)."""
        return self._column_epochs.get((table_name, column_name, partition_id), 0)

    def _bump_epoch(
        self, table_name: str, column_name: str, partition_id: int = 0
    ) -> None:
        """Advance one partition's epoch and drop its cached plaintext.

        Called from every write ecall. The epoch is part of every cache key,
        so even without the eager invalidation a stale hit is impossible —
        the invalidation just frees the budget immediately. Only the written
        partition is invalidated: an incremental merge that rebuilds one
        dirty partition keeps every clean partition's cache warm.
        """
        key = (table_name, column_name, partition_id)
        self._column_epochs[key] = self._column_epochs.get(key, 0) + 1
        self._searcher.invalidate_partition(table_name, column_name, partition_id)

    def _reset_caches(self) -> None:
        """Drop all memoized key material and plaintext.

        Invoked when ``SKDB`` (re)enters the enclave: every derived key and
        every decrypted entry may be stale under the new master key.
        """
        self.protected_set(_KEY_CACHE, {})
        self._searcher.clear()

    # ------------------------------------------------------------------
    # Provisioning (paper §4.2, steps 1-2)
    # ------------------------------------------------------------------
    @ecall
    def channel_offer(self) -> ChannelOffer:
        """Start an attested handshake: quote over a fresh DH public value."""
        listener = SecureChannelListener(self._attestation, self._rng.fork("channel"))
        self.protected_set(_LISTENER, listener)
        return listener.offer(self)

    @ecall
    def channel_accept(self, client_public: int) -> None:
        """Finish the handshake with the data owner's DH public value."""
        if not self.protected_has(_LISTENER):
            raise EnclaveSecurityError("channel_accept before channel_offer")
        listener: SecureChannelListener = self.protected_get(_LISTENER)
        self.protected_set(_CHANNEL, listener.accept(client_public))

    @ecall
    def provision_master_key(self, wire_blob: bytes) -> None:
        """Receive ``SKDB`` through the established secure channel."""
        if not self.protected_has(_CHANNEL):
            raise EnclaveSecurityError("no secure channel established")
        channel = self.protected_get(_CHANNEL)
        self.protected_set(_MASTER_KEY, channel.receive(wire_blob))
        self._reset_caches()

    @ecall
    def replicate_master_key(self, offer: ChannelOffer) -> tuple[int, bytes]:
        """Primary-side key hand-off to a replica enclave (cluster role).

        ``offer`` is the attested channel offer of another enclave running
        the *same* program. This enclave — already provisioned — plays the
        data owner's role of the §4.2 handshake entirely inside the ecall:
        it verifies the replica's quote against its **own** measurement,
        derives the DH channel, and wraps ``SKDB`` under the session key.
        The return value ``(client_public, wire_blob)`` is relayed by the
        untrusted coordinator to the replica's ``channel_accept`` and
        ``provision_master_key`` ecalls; the relay observes only a public
        DH value and a PAE blob, so the master key moves enclave-to-enclave
        without ever existing unwrapped outside either TCB.
        """
        if not self.protected_has(_MASTER_KEY):
            raise EnclaveSecurityError(
                "cannot replicate: master key has not been provisioned"
            )
        from repro.sgx.channel import SecureChannel

        channel, client_public = SecureChannel.connect(
            offer,
            self._attestation,
            self.measurement,
            rng=self._rng.fork("replicate"),
            pae=self._pae,
        )
        # lint: allow(plaintext-taint) justification="sanctioned key egress: SecureChannel.send wraps SKDB under the attested session key before it leaves the TCB (paper 4.2 step 5)"
        return client_public, channel.send(self.protected_get(_MASTER_KEY))

    @ecall
    def is_provisioned(self) -> bool:
        """Whether ``SKDB`` is currently resident in the enclave.

        Not a secret: the untrusted host already observes whether the
        provisioning ecalls ran. The network server advertises this in its
        hello frame so remote clients know whether to attest-and-provision
        or to resume with an existing key.
        """
        return self.protected_has(_MASTER_KEY)

    @ecall
    def seal_master_key(self) -> bytes:
        """Seal ``SKDB`` to this enclave identity for persistence."""
        return seal(self.measurement, self.protected_get(_MASTER_KEY), pae=self._pae)

    @ecall
    def restore_master_key(self, sealed_blob: bytes) -> None:
        """Restore ``SKDB`` from a sealed blob (same enclave identity only)."""
        self.protected_set(
            _MASTER_KEY, unseal(self.measurement, sealed_blob, pae=self._pae)
        )
        self._reset_caches()

    def _column_key(
        self, table_name: str, column_name: str, key_epoch: int = 0
    ) -> bytes:
        """``SKD = DeriveKey(SKDB, tabName, colName)`` (Algorithm 1 line 1).

        ``key_epoch`` selects the storage-key generation of an online key
        rotation (``repro.migrate``); epoch 0 is both the original column key
        and the fixed *transit* key for proxy↔enclave encodings. Derivations
        are memoized in the protected store — HKDF per ecall is pure overhead
        once ``SKDB`` is fixed — in a memo bounded at
        ``_KEY_CACHE_MAX_ENTRIES`` keys (constant enclave memory) and wiped
        whenever the master key is (re)provisioned.
        """
        if not self.protected_has(_MASTER_KEY):
            raise EnclaveSecurityError("master key has not been provisioned")
        if not self.protected_has(_KEY_CACHE):
            self.protected_set(_KEY_CACHE, {})
        cache: dict = self.protected_get(_KEY_CACHE)
        cache_key = (table_name, column_name, key_epoch)
        derived = cache.get(cache_key)
        if derived is None:
            derived = derive_column_key(
                self.protected_get(_MASTER_KEY), table_name, column_name, key_epoch
            )
            if len(cache) >= _KEY_CACHE_MAX_ENTRIES:
                cache.clear()
            cache[cache_key] = derived
        return derived

    def _opening(self, dictionary: EncryptedDictionary) -> dict[str, bytes | int]:
        """What opening ``dictionary``'s entries takes: the storage key of
        its ``key_epoch`` and its partition's current write epoch.

        The only reader of the two server-side bookkeeping fields; both
        decode with the dataclass default of 0 when a dictionary arrives
        over the wire (``net/protocol.py``).
        """
        table_name, column_name = dictionary.table_name, dictionary.column_name
        return {
            "key": self._column_key(table_name, column_name, dictionary.key_epoch),
            "cache_epoch": self._epoch(
                table_name, column_name, dictionary.partition_id
            ),
        }

    # ------------------------------------------------------------------
    # Query processing (paper §4.2, step 8)
    # ------------------------------------------------------------------
    def _dict_search_one(
        self, dictionary: EncryptedDictionary, tau: tuple[bytes, bytes]
    ) -> SearchResult:
        """One ``EnclDictSearch``: decrypt ``τ``, derive ``SKD``, dispatch.

        ``τ`` is always under the transit key (epoch 0) — clients need not
        know a column's storage-key generation to query it — while the
        dictionary entries are opened under the dictionary's own
        ``key_epoch``, so queries keep working across an online key rotation
        even while old- and new-epoch partitions coexist.
        """
        transit_key = self._column_key(
            dictionary.table_name, dictionary.column_name
        )
        low_blob, high_blob = tau
        search = OrdinalRange.from_bytes(
            self._pae.decrypt(transit_key, low_blob)
            + self._pae.decrypt(transit_key, high_blob)
        )
        self.cost_model.record_decryption(len(low_blob))
        self.cost_model.record_decryption(len(high_blob))
        return self._searcher.search(dictionary, search, **self._opening(dictionary))

    @ecall
    def dict_search(
        self, dictionary: EncryptedDictionary, tau: tuple[bytes, bytes]
    ) -> SearchResult:
        """``EnclDictSearch`` on one encrypted dictionary.

        ``dictionary`` is a *reference* into untrusted memory enriched with
        the table/column metadata; ``tau`` is the PAE-encrypted range.
        """
        return self._dict_search_one(dictionary, tau)

    @ecall
    def dict_search_batch(
        self,
        requests: Sequence[tuple[EncryptedDictionary, tuple[bytes, bytes]]],
    ) -> list[SearchResult]:
        """``EnclDictSearch`` over many ``(dictionary, τ)`` pairs at once.

        One boundary crossing serves a whole multi-filter plan (conjunctive
        or disjunctive filters, main + delta stores, join-side lookups) —
        the DuckDB-SGX2 lesson that transition costs dominate repeated small
        enclave calls. The dictionaries may belong to different columns;
        results are returned in request order.
        """
        if not requests:
            raise QueryError("dict_search_batch requires at least one request")
        return [
            self._dict_search_one(dictionary, tau) for dictionary, tau in requests
        ]

    @ecall
    def join_tokens(self, dictionary: EncryptedDictionary, salt: bytes) -> list[bytes]:
        """Equi-join support (paper §4.2 names joins as future work).

        Returns one opaque token per dictionary entry, ``HMAC(k_join,
        plaintext)`` under a per-query join key derived from ``SKDB`` and a
        fresh salt. Equal plaintexts — across *different* columns and their
        different ``SKD`` keys — map to equal tokens, so the untrusted side
        can hash-join attribute vectors on tokens.

        Leakage: within one query, the equality pattern of the two join
        columns' dictionary entries (comparable to CryptDB's deterministic
        join keys). The fresh salt prevents linking tokens across queries.
        """
        if len(salt) < 16:
            raise EnclaveSecurityError("join salt must be at least 16 bytes")
        from repro.crypto.kdf import hkdf_sha256
        import hashlib
        import hmac as hmac_module

        # Join-side decryptions share the entry cache with dict_search: a
        # join after a scan of the same column costs no re-decryption.
        accessor = self._searcher.accessor(dictionary, **self._opening(dictionary))
        join_key = hkdf_sha256(
            self.protected_get(_MASTER_KEY),
            info=b"EncDBDB-join\x00" + salt,
            length=16,
        )
        return [
            hmac_module.new(join_key, plaintext, hashlib.sha256).digest()[:16]
            for plaintext in accessor.open_entries(range(len(dictionary)))
        ]

    # ------------------------------------------------------------------
    # Dynamic data (paper §4.3)
    # ------------------------------------------------------------------
    @ecall
    def reseal_delta(
        self,
        table_name: str,
        column_name: str,
        blobs: Sequence[bytes],
        *,
        from_epoch: int = 0,
        to_epoch: int = 0,
    ) -> list[bytes]:
        """Open ``blobs`` under one key epoch, re-seal them under another.

        The one write to the ED9 delta store. An INSERT passes one column's
        transit blobs for all rows of the statement (``from_epoch`` 0 is the
        permanent proxy↔enclave key) and the column's storage epoch, so new
        rows land under the same key generation as the main store; a
        key-rotation flip passes the whole delta store, old epoch to new,
        and its rollback the post-flip suffix back. Fresh IVs make the
        result unlinkable to the input; order is kept (delta RecordIDs are
        positional). The untrusted side sees a same-length list of same-size
        blobs, and one bad tag rejects the whole list.
        """
        from repro.columnstore.partition import DELTA_PARTITION_ID

        # Only the delta store changes: main-partition caches stay warm.
        self._bump_epoch(table_name, column_name, DELTA_PARTITION_ID)
        if not blobs:
            return []
        from_key = self._column_key(table_name, column_name, from_epoch)
        to_key = self._column_key(table_name, column_name, to_epoch)
        plaintexts = self._pae.decrypt_many(from_key, list(blobs))
        self.cost_model.record_decryption_batch(len(blobs), sum(map(len, blobs)))
        return self._pae.encrypt_many(to_key, plaintexts)

    def _open_segments(
        self,
        segments: Sequence[tuple[EncryptedDictionary, Sequence[int]]],
        *,
        cached: bool = False,
        dtype=object,
    ):
        """The decoded values of ``segments``, in row order, as one array.

        A segment is one store's ``(dictionary, ValueIDs)``. Each distinct
        entry is opened once, in one PAE batch per segment, and a ValueID
        outside ``[0, |D|)`` fails the dictionary's bounds check instead of
        wrapping. Merge and rotation read stores about to be replaced, so
        they bypass the entry cache; the aggregate's int64 measures share
        it with the searches (``cached=True``).
        """
        import numpy as np

        parts = [np.empty(0, dtype=dtype)]
        for dictionary, vids in segments:
            distinct, inverse = np.unique(
                np.asarray(vids, dtype=np.int64), return_inverse=True
            )
            accessor = self._searcher.accessor(
                dictionary, cached=cached, **self._opening(dictionary)
            )
            decoded = np.asarray(
                [
                    dictionary.value_type.from_bytes(plaintext)
                    for plaintext in accessor.open_entries(distinct.tolist())
                ],
                dtype=dtype,
            )
            parts.append(decoded[inverse.reshape(-1)])
        return np.concatenate(parts)

    def _build_partition(
        self,
        values: Sequence,
        kind: EncryptedDictionaryKind,
        *,
        table_name: str,
        column_name: str,
        partition_id: int,
        key_epoch: int,
        **build_options,
    ) -> BuildResult:
        """``EncDB`` inside the enclave, where merge and rotation rebuilds
        both end: the enclave fixes the ``key_epoch`` storage key, its PAE
        and the partition/epoch stamp later searches open the result under;
        ``build_options`` (``value_type``, ``bsmax``, ``rng``, ``iv_rng``)
        go to :func:`encdb_build` as given."""
        build = encdb_build(
            values,
            kind,
            key=self._column_key(table_name, column_name, key_epoch),
            pae=self._pae,
            table_name=table_name,
            column_name=column_name,
            encrypted=True,
            **build_options,
        )
        build.dictionary.partition_id = partition_id
        build.dictionary.key_epoch = key_epoch
        return build

    @ecall
    def rebuild_for_merge(
        self,
        table_name: str,
        column_name: str,
        kind: EncryptedDictionaryKind,
        value_type,
        segments: Sequence[tuple[EncryptedDictionary, Sequence[int]]],
        *,
        bsmax: int = 10,
        partition_id: int = 0,
        key_epoch: int = 0,
    ) -> BuildResult:
        """Merge delta values into a fresh main-store partition.

        ``segments`` is the merged partition in row order, as the host's
        own stored ``(dictionary, ValueIDs)`` per store — main partitions,
        then the delta. Every distinct entry is opened here once and the
        partition rebuilt with fresh IVs, a fresh rotation, and a fresh
        shuffle, breaking any linkage between old and new stores (the
        oblivious-merge requirement of §4.3). ``partition_id`` scopes the
        epoch bump: an incremental merge rebuilding one dirty partition
        leaves the cached plaintext of every clean partition valid.

        Every store must belong to ``table_name.column_name`` under
        ``key_epoch``, the key the rebuilt partition is sealed under:
        otherwise a host could launder another column's values into
        authentic ciphertext of this one. A foreign store is refused before
        anything is opened.
        """
        bound = (table_name, column_name, key_epoch)
        for store, _vids in segments:
            if (store.table_name, store.column_name, store.key_epoch) != bound:
                raise EnclaveSecurityError(f"merge store is not of column/epoch {bound}")
        plaintexts = self._open_segments(segments).tolist()
        if not plaintexts:
            raise QueryError("rebuild_for_merge requires at least one value")
        self._bump_epoch(table_name, column_name, partition_id)
        from repro.sgx.oblivious import oblivious_shuffle

        # Obliviously permute row order before rebuilding: with the fresh
        # IVs/rotation/shuffle of the rebuild this breaks any positional
        # linkage between old and new stores, and the shuffle's own memory
        # trace is data-independent (§4.3's oblivious-primitives requirement).
        order = oblivious_shuffle(
            list(range(len(plaintexts))), self._rng.fork("merge-shuffle")
        )
        fork_label = f"merge-{table_name}-{column_name}"
        if partition_id:
            # Distinct DRBG stream per partition so two partitions rebuilt in
            # one merge never share a rotation offset or shuffle. Partition 0
            # keeps the historical label (bit-identical single-partition
            # merges).
            fork_label += f"-p{partition_id}"
        build = self._build_partition(
            [plaintexts[i] for i in order],
            kind,
            table_name=table_name,
            column_name=column_name,
            partition_id=partition_id,
            key_epoch=key_epoch,
            value_type=value_type,
            bsmax=bsmax,
            rng=self._rng.fork(fork_label),
        )
        # Realign the attribute vector to the caller's row order (all columns
        # of a table must stay row-aligned); the dictionaries themselves were
        # constructed from the shuffled stream.
        import numpy as np

        realigned = np.empty_like(build.attribute_vector)
        realigned[np.asarray(order, dtype=np.int64)] = build.attribute_vector
        build.attribute_vector = realigned
        return build

    # ------------------------------------------------------------------
    # Online rotation (repro.migrate)
    # ------------------------------------------------------------------
    @ecall
    def rotate_partition(
        self,
        old_dictionary: EncryptedDictionary,
        attribute_vector,
        *,
        new_kind: EncryptedDictionaryKind,
        key_epoch: int = 0,
        partition_index: int = 0,
        bsmax: int = 10,
    ) -> BuildResult:
        """Re-encrypt one main-store partition to a new ED kind / key epoch.

        The shadow build of an online rotation (``repro.migrate``): the old
        partition's ciphertext is opened here — plaintext never leaves the
        TCB — and rebuilt with ``new_kind`` under the ``key_epoch`` storage
        key. Row order is preserved (the other columns' attribute vectors
        stay row-aligned, so a rotation must not move rows), and the build
        DRBG is derived deterministically from ``SKDB`` and the rotation
        target via :func:`derive_rotation_seed` with the exact per-partition
        fork discipline of :func:`encdb_build_partitioned`. Consequences:
        the rotated column is byte-identical to a from-scratch deterministic
        build the data owner can reproduce, and replicas rotating
        independently converge on identical ciphertext.
        """
        from repro.crypto.kdf import derive_rotation_seed
        from repro.encdict.builder import derive_partition_rngs

        table_name = old_dictionary.table_name
        column_name = old_dictionary.column_name
        partition_id = old_dictionary.partition_id
        if partition_index < 0:
            raise QueryError(f"invalid partition index {partition_index}")
        if len(old_dictionary) == 0:
            raise QueryError("cannot rotate an empty partition")
        # The old partition's cached plaintext is dropped now (write-ecall
        # discipline); queries re-warm it from the still-serving old build.
        self._bump_epoch(table_name, column_name, partition_id)
        values = self._open_segments([(old_dictionary, attribute_vector)]).tolist()
        # Replay the canonical fork discipline: child i of the rotation root
        # is a pure function of (SKDB, rotation target, partition index), so
        # rotating partitions out of order — or in parallel on replicas —
        # yields the same streams a serial from-scratch build would draw.
        root = HmacDrbg(
            derive_rotation_seed(
                self.protected_get(_MASTER_KEY),
                table_name,
                column_name,
                new_kind.name,
                key_epoch,
            )
        )
        build_rng, iv_rng = derive_partition_rngs(root, partition_index + 1)[
            partition_index
        ]
        return self._build_partition(
            values,
            new_kind,
            table_name=table_name,
            column_name=column_name,
            partition_id=partition_id,
            key_epoch=key_epoch,
            value_type=old_dictionary.value_type,
            bsmax=bsmax,
            rng=build_rng,
            iv_rng=iv_rng,
        )

    # ------------------------------------------------------------------
    # Analytics pushdown (PR 9)
    # ------------------------------------------------------------------
    @ecall
    def aggregate_groups(
        self,
        table_name: str,
        specs: Sequence[tuple],
        segments: Sequence[dict],
        *,
        group_column: str | None = None,
    ) -> list[bytes]:
        """COUNT/SUM/MIN/MAX/AVG (+ GROUP BY) over packed ordinals (PR 9).

        ``specs`` is ``(function, measure_column | None, label)`` per
        aggregate output; ``segments`` carries, per store (main partitions in
        order, then delta — i.e. RecordID order), the filtered rows' group
        ValueIDs with their dictionary and the measure columns' ValueIDs with
        theirs. Grouping happens entirely in the ordinal domain (one
        ``np.unique`` + bincount-style reductions); only the *distinct* group
        and measure entries are ever decrypted — never one row at a time.
        Groups whose entries decrypt to equal plaintexts (ED1/ED4/ED7
        duplicate entries, cross-partition dictionaries, delta rows) merge by
        plaintext, in first-occurrence RecordID order so the result rows line
        up exactly with the proxy-side reference grouping.

        The reply is a list of padded, PAE-encrypted group frames under the
        table's aggregate transit key (epoch 0): uniform byte length, count
        padded to a power of two with dummy frames. The untrusted side learns
        an upper bound on the group cardinality and nothing else — no row
        sets, values, or per-group counts (DESIGN.md §14).
        """
        import numpy as np

        from repro.encdict.kernels import (
            group_counts,
            group_firsts,
            group_index,
            group_maxs,
            group_mins,
            group_sums,
        )

        if not specs:
            raise QueryError("aggregate_groups requires at least one aggregate")
        for function, column, _label in specs:
            if function not in _AGGREGATE_FUNCTIONS:
                raise QueryError(f"unsupported aggregate function {function!r}")
            if function != "COUNT" and column is None:
                raise QueryError(f"{function} requires a measure column")

        #: plaintext group key -> per-spec mergeable [a, b] states.
        merged: dict[bytes, list[list[int]]] = {}
        for segment in segments:
            group_ref = segment.get("group")
            if group_ref is not None:
                group_dictionary, group_vids = group_ref
                group_vids = np.asarray(group_vids, dtype=np.int64)
                rows = len(group_vids)
                if rows == 0:
                    continue
                distinct_vids, dense = group_index(group_vids)
                # One decryption per distinct group ValueID, sharing the
                # dict_search / join entry cache.
                key_blobs = self._searcher.accessor(
                    group_dictionary, **self._opening(group_dictionary)
                ).open_entries(distinct_vids.tolist())
            else:
                rows = int(segment["rows"])
                if rows == 0:
                    continue
                dense = np.zeros(rows, dtype=np.int64)
                key_blobs = [b""]
            n_groups = len(key_blobs)
            counts = group_counts(dense, n_groups)
            firsts = group_firsts(dense, n_groups)
            zeros = np.zeros(n_groups, dtype=np.int64)

            measure_values: dict[str, np.ndarray] = {}

            def row_values(column: str) -> np.ndarray:
                values = measure_values.get(column)
                if values is None:
                    reference = segment.get("measures", {}).get(column)
                    if reference is None:
                        raise QueryError(
                            f"aggregate_groups segment is missing measure {column!r}"
                        )
                    values = self._open_segments(
                        [reference], cached=True, dtype=np.int64
                    )
                    if len(values) != rows:
                        raise QueryError(
                            "measure rows do not line up with group rows"
                        )
                    measure_values[column] = values
                return values

            spec_states = []
            for function, column, _label in specs:
                if function == "COUNT":
                    spec_states.append((counts, zeros))
                elif function == "SUM":
                    spec_states.append(
                        (group_sums(dense, n_groups, row_values(column)), zeros)
                    )
                elif function == "AVG":
                    spec_states.append(
                        (group_sums(dense, n_groups, row_values(column)), counts)
                    )
                elif function == "MIN":
                    spec_states.append(
                        (group_mins(dense, n_groups, row_values(column)), zeros)
                    )
                else:  # MAX
                    spec_states.append(
                        (group_maxs(dense, n_groups, row_values(column)), zeros)
                    )

            # Fold ValueID-level states into plaintext-keyed groups in
            # first-occurrence order; segments arrive in RecordID order, so
            # dict insertion order *is* global first-occurrence order.
            for group_position in np.argsort(firsts, kind="stable").tolist():
                key_bytes = bytes(key_blobs[group_position])
                states = merged.get(key_bytes)
                if states is None:
                    merged[key_bytes] = [
                        [int(a[group_position]), int(b[group_position])]
                        for a, b in spec_states
                    ]
                    continue
                for index, (function, _column, _label) in enumerate(specs):
                    a, b = spec_states[index]
                    if function == "MIN":
                        states[index][0] = min(states[index][0], int(a[group_position]))
                    elif function == "MAX":
                        states[index][0] = max(states[index][0], int(a[group_position]))
                    else:
                        states[index][0] += int(a[group_position])
                        states[index][1] += int(b[group_position])

        # A global (ungrouped) aggregate over zero matching rows still yields
        # one result row — COUNT(*) = 0, every other aggregate NULL — to
        # match the proxy-side reference. A grouped aggregate yields none.
        empty_global = group_column is None and not merged
        if empty_global:
            merged[b""] = [[0, 0] for _ in specs]

        payloads = []
        for key_bytes, states in merged.items():
            frame_states = []
            for index, (function, _column, _label) in enumerate(specs):
                a, b = states[index]
                if empty_global and function != "COUNT":
                    frame_states.append((False, 0, 0))
                else:
                    frame_states.append((True, a, b))
            payloads.append(encode_frame_payload(False, key_bytes, frame_states))
        dummy_payload = encode_frame_payload(
            True, b"", [(False, 0, 0)] * len(specs)
        )
        frame_size = max(len(payload) for payload in payloads + [dummy_payload])
        payloads.extend(
            [dummy_payload] * (padded_frame_count(len(payloads)) - len(payloads))
        )
        transit_key = self._column_key(table_name, AGGREGATE_KEY_COLUMN)
        plaintexts = [
            len(payload).to_bytes(4, "big")
            + payload
            + b"\x00" * (frame_size - len(payload))
            for payload in payloads
        ]
        return self._pae.encrypt_many(transit_key, plaintexts)
