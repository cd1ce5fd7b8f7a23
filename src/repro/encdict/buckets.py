"""The frequency-smoothing random bucket experiment (paper Algorithm 5).

``getRndBucketSizes(|oc(C, v)|, bsmax)`` splits the occurrences of one
unique value into buckets whose sizes are drawn uniformly from
``U{1, bsmax}`` until the drawn total covers the occurrence count; the last
bucket is shrunk to make the total exact. Every bucket becomes one
dictionary entry, so a ValueID in the attribute vector repeats at most
``bsmax`` times — the bounded frequency leakage of Table 3.

The method is the Uniform Random Salt Frequencies scheme of Pouliot, Griffy
and Wright [70].
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg


def get_rnd_bucket_sizes(occurrences: int, bsmax: int, rng: HmacDrbg) -> list[int]:
    """Return the random bucket sizes for a value occurring ``occurrences`` times.

    Follows Algorithm 5 line by line; the returned list is ``bssizes`` and
    its length is ``#bs``. Each size is one draw of the rejection sampler
    over ``rng``'s pooled stream (:meth:`HmacDrbg.read_randint`).

    >>> sizes = get_rnd_bucket_sizes(10, 3, HmacDrbg(b"doc"))
    >>> sum(sizes)
    10
    >>> all(1 <= s <= 3 for s in sizes)
    True
    """
    if occurrences < 1:
        raise ValueError("a dictionary value must occur at least once")
    if bsmax < 1:
        raise ValueError("bsmax must be >= 1")
    previous_total = 0
    total = 0
    bucket_sizes: list[int] = []
    while total < occurrences:
        size = rng.read_randint(1, bsmax)
        bucket_sizes.append(size)
        previous_total = total
        total += size
    bucket_sizes[-1] = occurrences - previous_total
    return bucket_sizes


def expected_bucket_count(occurrences: int, bsmax: int) -> float:
    """Expected ``#bs`` for one value: ``2 * occurrences / (1 + bsmax)``.

    This is the per-value term of the Table 3 dictionary-size estimate
    ``|D| ~ sum_v 2*|oc(C,v)| / (1 + bsmax)`` (mean bucket size is
    ``(1 + bsmax) / 2``).
    """
    return 2 * occurrences / (1 + bsmax)
