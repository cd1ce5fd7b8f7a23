"""Deterministic RNG tests: reproducibility, uniformity, fork independence."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import FIRST_REFILL_BYTES, MAX_REQUEST_BYTES, HmacDrbg


def test_same_seed_same_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.random_bytes(100) == b.random_bytes(100)
    assert a.randint(0, 1000) == b.randint(0, 1000)


def test_different_seeds_diverge():
    assert HmacDrbg(b"seed-a").random_bytes(32) != HmacDrbg(b"seed-b").random_bytes(32)


def test_request_methods_keep_their_outputs():
    """``random_bytes``, ``randint`` and ``fork`` draw one request per
    call, as before the pooled stream existed: workload generation, proxy
    salts and channel keys depend on these outputs. The digest was recorded
    before ``read`` was added."""
    rng = HmacDrbg(b"pinned-outputs")
    digest = hashlib.sha256()
    digest.update(rng.random_bytes(100))
    draws = [rng.randint(0, 1000) for _ in range(50)]
    draws += [rng.randint(-5, 2**40) for _ in range(20)]
    digest.update(str(draws).encode("ascii"))
    digest.update(rng.fork("child").random_bytes(64))
    digest.update(rng.random_bytes(MAX_REQUEST_BYTES))
    assert digest.hexdigest() == (
        "6b0b0314d307b90ba9cba3f0ae585c9c557b360c35b2f56340bbed796d295da5"
    )


#: Splits of one 200 000-byte read: across the first refills (512, then
#: 1 024 bytes), at a refill boundary exactly, and reads over 64 KiB.
_SPLITS = [
    [200_000],
    [12] * 100 + [198_800],
    [511, 1, 1, 1023, 1, 198_463],
    [512, 1024, 2048, 196_416],
    [70_000, 3, 129_997],
    [65_536, 65_536, 68_928],
]


@pytest.mark.parametrize("split", _SPLITS)
def test_read_is_the_same_stream_however_it_is_split(split):
    whole, parts = HmacDrbg(b"stream"), HmacDrbg(b"stream")
    assert sum(split) == 200_000
    assert b"".join(parts.read(n) for n in split) == whole.read(200_000)
    # Pool and generator state end up in the same place as well.
    assert parts.read(40) == whole.read(40)
    assert parts.random_bytes(32) == whole.random_bytes(32)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=3000), max_size=12))
def test_read_split_property(split):
    whole, parts = HmacDrbg(b"split"), HmacDrbg(b"split")
    assert b"".join(parts.read(n) for n in split) == whole.read(sum(split))


def _spy_requests(rng: HmacDrbg, monkeypatch) -> list[int]:
    sizes: list[int] = []
    request = rng.random_bytes

    def spy(n: int) -> bytes:
        sizes.append(n)
        return request(n)

    monkeypatch.setattr(rng, "random_bytes", spy)
    return sizes


def test_read_refills_with_growing_requests_up_to_the_cap(monkeypatch):
    """Refills start at 512 bytes and double up to ``MAX_REQUEST_BYTES``;
    no request of the stream exceeds the cap, however long the read."""
    rng = HmacDrbg(b"cap")
    sizes = _spy_requests(rng, monkeypatch)
    assert len(rng.read(12)) == 12  # a small consumer generates little
    assert sizes == [FIRST_REFILL_BYTES]
    assert len(rng.read(300_000)) == 300_000
    for _ in range(5_000):
        rng.read_randint(0, 2**40)
    assert max(sizes) == MAX_REQUEST_BYTES
    assert sizes[:8] == [FIRST_REFILL_BYTES << i for i in range(8)]
    assert all(size == MAX_REQUEST_BYTES for size in sizes[7:])


def test_read_rejects_a_negative_length():
    """A negative read must not move the pool back and serve bytes twice:
    every PAE IV is cut from this stream."""
    rng, fresh = HmacDrbg(b"negative"), HmacDrbg(b"negative")
    assert rng.read(20) == fresh.read(20)
    with pytest.raises(ValueError):
        rng.read(-1)
    assert rng.read(20) == fresh.read(20)


def test_shuffle_reads_the_pooled_stream(monkeypatch):
    """A shuffle of 50 items is served by the first refill, not by one
    request per sample."""
    rng = HmacDrbg(b"shuffle-pool")
    sizes = _spy_requests(rng, monkeypatch)
    rng.shuffle(list(range(50)))
    assert sizes == [FIRST_REFILL_BYTES]


def test_fork_after_a_refill_leaves_the_pool_alone():
    """``fork`` is a request on the state the last refill left; the bytes
    already pooled are still served to later reads."""
    forked, plain = HmacDrbg(b"fork-pool"), HmacDrbg(b"fork-pool")
    stream = plain.read(1_000)
    assert forked.read(10) == stream[:10]
    child = forked.fork("child")
    assert forked.read(490) == stream[10:500]
    refilled = HmacDrbg(b"fork-pool")
    refilled.random_bytes(FIRST_REFILL_BYTES)  # the first refill's request
    assert child.random_bytes(16) == refilled.fork("child").random_bytes(16)


def test_seed_types_accepted():
    for seed in (b"bytes", "string", 42, -7, 0):
        assert len(HmacDrbg(seed).random_bytes(8)) == 8


def test_int_seeds_distinct():
    assert HmacDrbg(1).random_bytes(16) != HmacDrbg(2).random_bytes(16)


def test_randint_bounds():
    rng = HmacDrbg(b"s")
    values = [rng.randint(3, 7) for _ in range(500)]
    assert min(values) == 3
    assert max(values) == 7


def test_randint_single_point():
    rng = HmacDrbg(b"s")
    assert rng.randint(5, 5) == 5


def test_randint_empty_range_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").randint(5, 4)


def test_randint_roughly_uniform():
    """Chi-square style sanity check on U{1, 4} (the bucket experiment)."""
    rng = HmacDrbg(b"uniform")
    counts = Counter(rng.randint(1, 4) for _ in range(8000))
    for value in (1, 2, 3, 4):
        assert 1700 < counts[value] < 2300, counts


def test_read_randint_roughly_uniform():
    """The pooled sampler passes the same check as ``randint``."""
    rng = HmacDrbg(b"uniform")
    counts = Counter(rng.read_randint(1, 4) for _ in range(8000))
    for value in (1, 2, 3, 4):
        assert 1700 < counts[value] < 2300, counts


def test_read_randint_bounds():
    rng = HmacDrbg(b"s")
    values = [rng.read_randint(3, 7) for _ in range(500)]
    assert min(values) == 3
    assert max(values) == 7
    assert rng.read_randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.read_randint(5, 4)


@settings(max_examples=30)
@given(low=st.integers(-1000, 1000), span=st.integers(0, 1000))
def test_read_randint_always_in_range(low: int, span: int):
    value = HmacDrbg(b"s").read_randint(low, low + span)
    assert low <= value <= low + span


def test_shuffle_is_permutation():
    rng = HmacDrbg(b"s")
    items = list(range(50))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_shuffle_reproducible():
    items1, items2 = list(range(20)), list(range(20))
    HmacDrbg(b"s").shuffle(items1)
    HmacDrbg(b"s").shuffle(items2)
    assert items1 == items2


def test_fork_independence():
    parent1 = HmacDrbg(b"seed")
    parent2 = HmacDrbg(b"seed")
    child_a = parent1.fork("a")
    child_b = parent2.fork("b")
    assert child_a.random_bytes(32) != child_b.random_bytes(32)


def test_fork_reproducible():
    assert (
        HmacDrbg(b"seed").fork("x").random_bytes(16)
        == HmacDrbg(b"seed").fork("x").random_bytes(16)
    )


@settings(max_examples=30)
@given(n=st.integers(min_value=0, max_value=200))
def test_random_bytes_length(n: int):
    assert len(HmacDrbg(b"s").random_bytes(n)) == n


@settings(max_examples=30)
@given(low=st.integers(-1000, 1000), span=st.integers(0, 1000))
def test_randint_always_in_range(low: int, span: int):
    value = HmacDrbg(b"s").randint(low, low + span)
    assert low <= value <= low + span


def test_random_bytes_refuses_more_than_one_request():
    """SP 800-90A caps one HMAC_DRBG generate request at 2**19 bits."""
    rng = HmacDrbg(b"cap")
    assert MAX_REQUEST_BYTES == 65_536
    assert len(rng.random_bytes(MAX_REQUEST_BYTES)) == MAX_REQUEST_BYTES
    state = rng.random_bytes(32)
    refused = HmacDrbg(b"cap")
    with pytest.raises(ValueError):
        refused.random_bytes(MAX_REQUEST_BYTES + 1)
    # A refused request draws nothing: the stream continues unchanged.
    refused.random_bytes(MAX_REQUEST_BYTES)
    assert refused.random_bytes(32) == state
