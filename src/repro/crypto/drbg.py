"""Deterministic randomness for reproducible experiments.

Every stochastic choice in the reproduction (random IVs, dictionary
rotations/shuffles, the frequency-smoothing experiment, workload sampling)
draws from an :class:`HmacDrbg` so a single seed reproduces a whole
experiment bit-for-bit. The construction follows NIST SP 800-90A's HMAC_DRBG
(SHA-256, no reseeding or prediction resistance, which the simulation does
not need).

**Requests.** :meth:`HmacDrbg.random_bytes` is one SP 800-90A generate
request: one HMAC block per 32 output bytes, then the post-generate state
update (two more HMACs). A request is capped at :data:`MAX_REQUEST_BYTES`.
:meth:`~HmacDrbg.randint` and :meth:`~HmacDrbg.fork` make one request per
sample (per fork); workload generation, proxy salts and channel keys draw
from them, so their outputs never change.

**The pool.** A 12-byte IV or a one-byte bucket size as its own request
costs three HMACs, so the bulk consumers — PAE IVs, bucket sizes, rotation
offsets, dictionary and attribute-vector shuffles, the MERGE shuffle's
tags — read a byte stream instead. :meth:`~HmacDrbg.read` serves bytes from
a pool kept in the generator and refills it, only when a read needs more,
with one ordinary request: 512 bytes first, doubling per refill up to
``MAX_REQUEST_BYTES``. A small consumer (a per-partition fork that needs a
dozen bytes) generates little; a long read is served by several requests.
The stream is the same however it is split into reads.
:meth:`~HmacDrbg.read_randint` runs ``randint``'s one rejection sampler
over the stream, and :meth:`~HmacDrbg.shuffle` is a Fisher–Yates over it.

**Pool and requests together.** ``random_bytes``, ``randint`` and ``fork``
never touch the pool: they are requests on the DRBG state as the last
refill left it. A ``fork`` after a refill therefore derives its child from
the state past that refill, and the bytes already pooled are still served
to later reads. Output is a pure function of the seed and the sequence of
calls.
"""

from __future__ import annotations

import hmac
from typing import Callable, MutableSequence

# SP 800-90A, Table 2: HMAC_DRBG's max_number_of_bits_per_request is 2**19.
MAX_REQUEST_BYTES = 2**19 // 8

#: Size of the pool's first refill; each later refill doubles, up to
#: ``MAX_REQUEST_BYTES``.
FIRST_REFILL_BYTES = 512


def _randint(draw: Callable[[int], bytes], low: int, high: int) -> int:
    """Uniform integer in ``[low, high]`` by rejection over ``draw(n)`` bytes.

    Rejection sampling keeps the distribution exactly uniform, which matters
    for the frequency-smoothing security argument (paper §4.1).
    """
    if low > high:
        raise ValueError(f"empty range [{low}, {high}]")
    span = high - low + 1
    nbytes = (span.bit_length() + 7) // 8
    limit = (256**nbytes // span) * span
    while True:
        candidate = int.from_bytes(draw(nbytes), "big")
        if candidate < limit:
            return low + candidate % span


class HmacDrbg:
    """HMAC-SHA256 deterministic random bit generator.

    >>> HmacDrbg(b"seed").random_bytes(4) == HmacDrbg(b"seed").random_bytes(4)
    True
    >>> a, b = HmacDrbg(b"seed"), HmacDrbg(b"seed")
    >>> a.read(3) + a.read(700) == b.read(703)
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
        self._pool = b""
        self._pool_pos = 0
        self._refill_bytes = FIRST_REFILL_BYTES

    def _update(self, provided: bytes | None = None) -> None:
        key = hmac.digest(self._key, self._value + b"\x00" + (provided or b""), "sha256")
        value = hmac.digest(key, self._value, "sha256")
        if provided is not None:
            key = hmac.digest(key, value + b"\x01" + provided, "sha256")
            value = hmac.digest(key, value, "sha256")
        self._key, self._value = key, value

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudorandom bytes, one SP 800-90A generate request.

        A request is capped at ``MAX_REQUEST_BYTES`` (65 536 bytes, the
        standard's per-request limit); a longer stream is :meth:`read`.
        """
        if n > MAX_REQUEST_BYTES:
            raise ValueError(
                f"random_bytes request of {n} bytes exceeds {MAX_REQUEST_BYTES}"
            )
        key, value = self._key, self._value
        blocks = []
        for _ in range(-(-n // 32)):  # one HMAC block per 32 output bytes
            value = hmac.digest(key, value, "sha256")
            blocks.append(value)
        self._value = value
        self._update()
        return b"".join(blocks)[:n]

    def read(self, n: int) -> bytes:
        """The next ``n`` bytes of the pooled stream (module docstring)."""
        if n < 0:
            raise ValueError(f"cannot read {n} bytes")
        start = self._pool_pos
        end = start + n
        if end <= len(self._pool):
            self._pool_pos = end
            return self._pool[start:end]
        out = bytearray(self._pool[start:])
        while len(out) < n:
            self._pool = self.random_bytes(self._refill_bytes)
            self._refill_bytes = min(2 * self._refill_bytes, MAX_REQUEST_BYTES)
            self._pool_pos = min(n - len(out), len(self._pool))
            out += self._pool[: self._pool_pos]
        return bytes(out)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the closed interval ``[low, high]``, each
        sample drawn as its own request."""
        return _randint(self.random_bytes, low, high)

    def read_randint(self, low: int, high: int) -> int:
        """:meth:`randint`'s sampler over the pooled stream."""
        return _randint(self.read, low, high)

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle over the pooled stream."""
        for i in range(len(items) - 1, 0, -1):
            j = _randint(self.read, 0, i)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: str) -> "HmacDrbg":
        """Derive an independent child generator for a named purpose.

        Forking keeps subsystems (e.g. workload generation vs. dictionary
        rotation) statistically independent while still fully seeded. The
        child's seed is one request on this generator's state; the pool is
        neither used nor carried over.
        """
        return HmacDrbg(self.random_bytes(32) + label.encode("utf-8"))
