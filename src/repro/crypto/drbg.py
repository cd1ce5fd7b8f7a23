"""Deterministic randomness for reproducible experiments.

Every stochastic choice in the reproduction (random IVs, dictionary
rotations/shuffles, the frequency-smoothing experiment, workload sampling)
draws from an :class:`HmacDrbg` so a single seed reproduces a whole
experiment bit-for-bit. The construction follows NIST SP 800-90A's HMAC_DRBG
(SHA-256, no reseeding or prediction resistance, which the simulation does
not need).
"""

from __future__ import annotations

import hmac
import hashlib

# SP 800-90A, Table 2: HMAC_DRBG's max_number_of_bits_per_request is 2**19.
MAX_REQUEST_BYTES = 2**19 // 8


class HmacDrbg:
    """HMAC-SHA256 deterministic random bit generator.

    >>> HmacDrbg(b"seed").random_bytes(4) == HmacDrbg(b"seed").random_bytes(4)
    True
    """

    def __init__(self, seed: bytes | int | str) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 15) // 8 + 1, "big", signed=True)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(seed)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.new(key, data, hashlib.sha256).digest()

    def _update(self, provided: bytes | None = None) -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + (provided or b""))
        self._value = self._hmac(self._key, self._value)
        if provided is not None:
            self._key = self._hmac(self._key, self._value + b"\x01" + provided)
            self._value = self._hmac(self._key, self._value)

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudorandom bytes, one SP 800-90A generate request.

        A request is capped at ``MAX_REQUEST_BYTES`` (65 536 bytes, the
        standard's per-request limit); a longer stream is several requests.
        """
        if n > MAX_REQUEST_BYTES:
            raise ValueError(
                f"random_bytes request of {n} bytes exceeds {MAX_REQUEST_BYTES}"
            )
        out = bytearray()
        while len(out) < n:
            self._value = self._hmac(self._key, self._value)
            out.extend(self._value)
        self._update()
        return bytes(out[:n])

    def random_bytes_many(self, n: int, count: int) -> list[bytes]:
        """``count`` draws of ``n`` bytes each, in one call.

        Byte-for-byte identical to ``[self.random_bytes(n) for _ in
        range(count)]`` — each draw still ratchets the generator state
        exactly as a standalone call would (one ``HMAC`` block per 32 output
        bytes plus the SP 800-90A post-generate update), so existing IV
        streams are unchanged. The batch only amortizes Python call and
        attribute-lookup overhead, which matters when a PAE backend seals
        thousands of dictionary entries per partition.
        """
        if count <= 0:
            return []
        out: list[bytes] = []
        hmac_fn = self._hmac
        for _ in range(count):
            key = self._key
            value = self._value
            buf = bytearray()
            while len(buf) < n:
                value = hmac_fn(key, value)
                buf.extend(value)
            self._value = value
            self._update()
            out.append(bytes(buf[:n]))
        return out

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the closed interval ``[low, high]``.

        Uses rejection sampling so the distribution is exactly uniform, which
        matters for the frequency-smoothing security argument (paper §4.1).
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        nbytes = (span.bit_length() + 7) // 8
        limit = (256**nbytes // span) * span
        while True:
            candidate = int.from_bytes(self.random_bytes(nbytes), "big")
            if candidate < limit:
                return low + candidate % span

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def choice(self, items: list):
        """Return a uniformly random element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def fork(self, label: str) -> "HmacDrbg":
        """Derive an independent child generator for a named purpose.

        Forking keeps subsystems (e.g. workload generation vs. dictionary
        rotation) statistically independent while still fully seeded.
        """
        return HmacDrbg(self.random_bytes(32) + label.encode("utf-8"))
