"""Probabilistic authenticated encryption (PAE) as defined in paper §2.3.

``PAE_Enc(SK, IV, v) -> c`` and ``PAE_Dec(SK, c) -> v`` with confidentiality,
integrity, and authenticity; instantiated with AES-128-GCM. The wire format of
every ciphertext is::

    IV (12 bytes) || GCM ciphertext (len(v) bytes) || tag (16 bytes)

so a ciphertext is exactly ``len(v) + 28`` bytes. That constant drives the
paper's storage evaluation (Table 6) and is exposed as
:data:`PAE_OVERHEAD_BYTES`.

Two backends implement the same :class:`Pae` interface:

- :class:`PurePythonPae` -- the from-scratch AES/GCM in this repository;
  the paper-faithful reference used in the crypto test-vector suite and the
  PAE-backend ablation benchmark.
- :class:`LibraryPae` -- ``cryptography``'s AESGCM (OpenSSL, AES-NI), which
  restores the paper's "hardware supported AES-GCM" speed relationship and is
  the default when the library is importable.

Both draw IVs from an :class:`~repro.crypto.drbg.HmacDrbg` so experiments are
reproducible, while remaining probabilistic from an attacker's viewpoint:
equal plaintexts encrypt to different ciphertexts.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Sequence

from repro.crypto.drbg import HmacDrbg
from repro.crypto.gcm import AesGcm
from repro.exceptions import AuthenticationError, CryptoError

try:  # pragma: no cover - availability depends on the environment
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _LibAesGcm
except ImportError:  # pragma: no cover
    _LibAesGcm = None

PAE_KEY_BYTES = 16
PAE_NONCE_BYTES = 12
PAE_TAG_BYTES = 16
PAE_OVERHEAD_BYTES = PAE_NONCE_BYTES + PAE_TAG_BYTES


def pae_gen(security_parameter: int = 128, *, rng: HmacDrbg | None = None) -> bytes:
    """``PAE_Gen(1^λ)``: generate a fresh secret key (paper §4.2 step 1)."""
    if security_parameter != 128:
        raise CryptoError("only λ = 128 (AES-128-GCM) is supported")
    if rng is None:
        import os

        # lint: allow(nondet-randomness) justification="PAE_Gen without an explicit DRBG is the interactive key-generation path (owner CLI); every build/test path passes rng"
        return os.urandom(PAE_KEY_BYTES)
    return rng.random_bytes(PAE_KEY_BYTES)


class Pae(ABC):
    """The PAE interface shared by both backends.

    Instances are stateless with respect to keys: the key is passed to each
    call, matching the paper where the enclave derives ``SKD`` per query.

    The operation counters are lock-protected so concurrent sessions can
    share one backend without losing counts; the internal IV generator is
    likewise guarded, but deterministic callers (the partitioned build)
    should pass an explicit ``rng`` instead so the IV stream does not depend
    on thread scheduling.
    """

    #: Human-readable backend name, used in benchmark reports.
    name: str = "abstract"

    def __init__(self, *, rng: HmacDrbg | None = None) -> None:
        self._rng = rng if rng is not None else HmacDrbg(b"repro-pae-default")
        self._counter_lock = threading.RLock()
        self.encrypt_count = 0  # guarded-by: self._counter_lock
        self.decrypt_count = 0  # guarded-by: self._counter_lock

    def add_operation_counts(self, encrypts: int = 0, decrypts: int = 0) -> None:
        """Add to this backend's operation counters, atomically (one backend
        may serve several threads)."""
        with self._counter_lock:
            self.encrypt_count += encrypts
            self.decrypt_count += decrypts

    def _draw_iv(self, rng: HmacDrbg | None) -> bytes:
        if rng is not None:
            return rng.random_bytes(PAE_NONCE_BYTES)
        with self._counter_lock:
            return self._rng.random_bytes(PAE_NONCE_BYTES)

    def encrypt(
        self,
        key: bytes,
        plaintext: bytes,
        aad: bytes = b"",
        *,
        rng: HmacDrbg | None = None,
    ) -> bytes:
        """``PAE_Enc``: encrypt under a fresh random IV; returns IV||ct||tag.

        ``rng`` overrides the backend's internal IV generator for this call —
        a partitioned build passes a per-(column, partition) DRBG so
        ciphertexts do not depend on the order partitions are built in.
        """
        if len(key) != PAE_KEY_BYTES:
            raise CryptoError(f"PAE key must be {PAE_KEY_BYTES} bytes")
        self.add_operation_counts(encrypts=1)
        iv = self._draw_iv(rng)
        ciphertext, tag = self._seal(key, iv, plaintext, aad)
        return iv + ciphertext + tag

    def encrypt_many(
        self,
        key: bytes,
        plaintexts: Sequence[bytes],
        aad: bytes = b"",
        *,
        rng: HmacDrbg | None = None,
    ) -> list[bytes]:
        """Seal a whole batch in one vectorized pass.

        Bit-for-bit identical to calling :meth:`encrypt` once per plaintext
        with the same ``rng`` (each IV is a separate 12-byte draw, exactly
        the sequential stream), but the key schedule, counter update and —
        without an explicit ``rng`` — the IV-generator lock are amortized
        over the batch instead of paid per value.
        """
        if len(key) != PAE_KEY_BYTES:
            raise CryptoError(f"PAE key must be {PAE_KEY_BYTES} bytes")
        if not plaintexts:
            return []
        # All N IVs come from the DRBG in one batched call (byte-identical
        # to N separate draws) and the counter is bumped once — the only
        # lock traffic of a batch is a single acquisition either way.
        if rng is not None:
            ivs = rng.random_bytes_many(PAE_NONCE_BYTES, len(plaintexts))
            self.add_operation_counts(encrypts=len(plaintexts))
        else:
            with self._counter_lock:
                ivs = self._rng.random_bytes_many(
                    PAE_NONCE_BYTES, len(plaintexts)
                )
                self.encrypt_count += len(plaintexts)
        return self._seal_batch(key, ivs, plaintexts, aad)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        """``PAE_Dec``: authenticate and decrypt an IV||ct||tag blob."""
        if len(key) != PAE_KEY_BYTES:
            raise CryptoError(f"PAE key must be {PAE_KEY_BYTES} bytes")
        if len(blob) < PAE_OVERHEAD_BYTES:
            raise AuthenticationError("ciphertext too short to be authentic")
        self.add_operation_counts(decrypts=1)
        iv = blob[:PAE_NONCE_BYTES]
        ciphertext = blob[PAE_NONCE_BYTES:-PAE_TAG_BYTES]
        tag = blob[-PAE_TAG_BYTES:]
        return self._open(key, iv, ciphertext, tag, aad)

    def decrypt_many(
        self, key: bytes, blobs: Sequence[bytes], aad: bytes = b""
    ) -> list[bytes]:
        """Authenticate and open a whole batch (one counter update)."""
        if len(key) != PAE_KEY_BYTES:
            raise CryptoError(f"PAE key must be {PAE_KEY_BYTES} bytes")
        for blob in blobs:
            if len(blob) < PAE_OVERHEAD_BYTES:
                raise AuthenticationError("ciphertext too short to be authentic")
        self.add_operation_counts(decrypts=len(blobs))
        return self._open_batch(key, blobs, aad)

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Size in bytes of the PAE blob for a plaintext of the given size."""
        return plaintext_length + PAE_OVERHEAD_BYTES

    def reset_counters(self) -> None:
        """Zero the operation counters used by the cost model."""
        with self._counter_lock:
            self.encrypt_count = 0
            self.decrypt_count = 0

    @abstractmethod
    def _seal(
        self, key: bytes, iv: bytes, plaintext: bytes, aad: bytes
    ) -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""

    @abstractmethod
    def _open(
        self, key: bytes, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes
    ) -> bytes:
        """Verify and decrypt; raise :class:`AuthenticationError` on failure."""

    def _seal_batch(
        self,
        key: bytes,
        ivs: Sequence[bytes],
        plaintexts: Sequence[bytes],
        aad: bytes,
    ) -> list[bytes]:
        """Seal a batch; backends override to reuse one cipher context."""
        return [
            iv + b"".join(self._seal(key, iv, plaintext, aad))
            for iv, plaintext in zip(ivs, plaintexts)
        ]

    def _open_batch(
        self, key: bytes, blobs: Sequence[bytes], aad: bytes
    ) -> list[bytes]:
        """Open a batch; backends override to reuse one cipher context."""
        return [
            self._open(
                key,
                blob[:PAE_NONCE_BYTES],
                blob[PAE_NONCE_BYTES:-PAE_TAG_BYTES],
                blob[-PAE_TAG_BYTES:],
                aad,
            )
            for blob in blobs
        ]


class PurePythonPae(Pae):
    """PAE over the from-scratch AES-128-GCM implementation."""

    name = "pure-python-aes-gcm"

    def __init__(self, *, rng: HmacDrbg | None = None) -> None:
        super().__init__(rng=rng)
        self._cache_lock = threading.RLock()
        self._gcm_cache: dict[bytes, AesGcm] = {}  # guarded-by: self._cache_lock

    def _gcm(self, key: bytes) -> AesGcm:
        with self._cache_lock:
            gcm = self._gcm_cache.get(key)
            if gcm is None:
                gcm = AesGcm(key)
                # Bounded cache: one entry per column key is typical.
                if len(self._gcm_cache) > 1024:
                    self._gcm_cache.clear()
                self._gcm_cache[key] = gcm
            return gcm

    def _seal(self, key, iv, plaintext, aad):
        return self._gcm(key).encrypt(iv, plaintext, aad)

    def _open(self, key, iv, ciphertext, tag, aad):
        return self._gcm(key).decrypt(iv, ciphertext, tag, aad)

    def _seal_batch(self, key, ivs, plaintexts, aad):
        # One cache-lock acquisition and key-schedule lookup per batch.
        gcm = self._gcm(key)
        blobs = []
        for iv, plaintext in zip(ivs, plaintexts):
            ciphertext, tag = gcm.encrypt(iv, plaintext, aad)
            blobs.append(iv + ciphertext + tag)
        return blobs

    def _open_batch(self, key, blobs, aad):
        gcm = self._gcm(key)
        return [
            gcm.decrypt(
                blob[:PAE_NONCE_BYTES],
                blob[PAE_NONCE_BYTES:-PAE_TAG_BYTES],
                blob[-PAE_TAG_BYTES:],
                aad,
            )
            for blob in blobs
        ]


class LibraryPae(Pae):
    """PAE over the ``cryptography`` library's AES-GCM (OpenSSL/AES-NI)."""

    name = "library-aes-gcm"

    def __init__(self, *, rng: HmacDrbg | None = None) -> None:
        if _LibAesGcm is None:  # pragma: no cover
            raise CryptoError(
                "the 'cryptography' package is not installed; "
                "use PurePythonPae or install repro[fastcrypto]"
            )
        super().__init__(rng=rng)
        self._cache_lock = threading.RLock()
        self._aead_cache: dict[bytes, object] = {}  # guarded-by: self._cache_lock

    def _aead(self, key: bytes):
        with self._cache_lock:
            aead = self._aead_cache.get(key)
            if aead is None:
                aead = _LibAesGcm(key)
                if len(self._aead_cache) > 1024:
                    self._aead_cache.clear()
                self._aead_cache[key] = aead
            return aead

    def _seal(self, key, iv, plaintext, aad):
        blob = self._aead(key).encrypt(iv, plaintext, aad)
        return blob[:-PAE_TAG_BYTES], blob[-PAE_TAG_BYTES:]

    def _open(self, key, iv, ciphertext, tag, aad):
        try:
            return self._aead(key).decrypt(iv, ciphertext + tag, aad)
        except Exception as exc:
            raise AuthenticationError("GCM tag verification failed") from exc


def default_pae(*, rng: HmacDrbg | None = None) -> Pae:
    """Return the fastest available backend (library if importable)."""
    if _LibAesGcm is not None:
        return LibraryPae(rng=rng)
    return PurePythonPae(rng=rng)  # pragma: no cover
