"""Deterministic RNG tests: reproducibility, uniformity, fork independence."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import MAX_REQUEST_BYTES, HmacDrbg


def test_same_seed_same_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.random_bytes(100) == b.random_bytes(100)
    assert a.randint(0, 1000) == b.randint(0, 1000)


def test_different_seeds_diverge():
    assert HmacDrbg(b"seed-a").random_bytes(32) != HmacDrbg(b"seed-b").random_bytes(32)


@pytest.mark.parametrize("n,count", [(12, 1), (12, 37), (16, 5), (1, 100), (12, 0)])
def test_random_bytes_many_replays_per_call_chain(n: int, count: int):
    """The batched draw is byte-identical to ``count`` sequential calls —
    including the per-call ratchet, so the generator state afterwards matches
    too (the next draw from either instance is identical)."""
    loop = HmacDrbg(b"batch-identity")
    batch = HmacDrbg(b"batch-identity")
    assert batch.random_bytes_many(n, count) == [
        loop.random_bytes(n) for _ in range(count)
    ]
    assert batch.random_bytes(n) == loop.random_bytes(n)


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


def test_choice():
    rng = HmacDrbg(b"s")
    assert rng.choice([42]) == 42
    assert rng.choice(["a", "b"]) in ("a", "b")
    with pytest.raises(ValueError):
        rng.choice([])


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
