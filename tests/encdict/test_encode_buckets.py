"""ENCODE order preservation (``ValueType.ordinal``) and the Algorithm 5
bucket experiment."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnstore.types import IntegerType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.encdict.buckets import expected_bucket_count, get_rnd_bucket_sizes

_VARCHAR_ALPHABET = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x7F), max_size=8
)


def test_encode_example_from_paper():
    """Strings are right-padded so 'AB' < 'B' is preserved numerically."""
    vt = VarcharType(5)
    assert vt.ordinal("AB") < vt.ordinal("B")
    assert vt.ordinal("AB") < vt.ordinal("BA")
    assert vt.ordinal("") == 0
    assert vt.domain_size == 256**5


@given(a=_VARCHAR_ALPHABET, b=_VARCHAR_ALPHABET)
def test_encode_preserves_string_order(a: str, b: str):
    vt = VarcharType(8)
    assert (a.encode() < b.encode()) == (vt.ordinal(a) < vt.ordinal(b))
    assert (a == b) == (vt.ordinal(a) == vt.ordinal(b))


@given(a=st.integers(-(2**31), 2**31 - 1), b=st.integers(-(2**31), 2**31 - 1))
def test_encode_preserves_integer_order(a: int, b: int):
    it = IntegerType()
    assert (a < b) == (it.ordinal(a) < it.ordinal(b))
    assert 0 <= it.ordinal(a) < it.domain_size


# ----------------------------------------------------------------------
# Algorithm 5
# ----------------------------------------------------------------------


def test_bucket_sizes_sum_to_occurrences():
    rng = HmacDrbg(b"b")
    for occurrences in (1, 2, 5, 17, 100):
        sizes = get_rnd_bucket_sizes(occurrences, 4, rng)
        assert sum(sizes) == occurrences


def test_bucket_sizes_respect_bsmax():
    rng = HmacDrbg(b"b")
    for _ in range(50):
        sizes = get_rnd_bucket_sizes(50, 7, rng)
        assert all(1 <= size <= 7 for size in sizes)


def test_bsmax_one_degenerates_to_frequency_hiding():
    """bsmax = 1 gives one bucket per occurrence (paper §4.1)."""
    sizes = get_rnd_bucket_sizes(9, 1, HmacDrbg(b"b"))
    assert sizes == [1] * 9


def test_single_occurrence_single_bucket():
    assert get_rnd_bucket_sizes(1, 10, HmacDrbg(b"b")) == [1]


def test_invalid_arguments_rejected():
    rng = HmacDrbg(b"b")
    with pytest.raises(ValueError):
        get_rnd_bucket_sizes(0, 3, rng)
    with pytest.raises(ValueError):
        get_rnd_bucket_sizes(5, 0, rng)


def test_last_bucket_can_shrink_but_never_below_one():
    """The final bucket is clamped to make the total exact (Algorithm 5
    line 10) and by construction remains >= 1."""
    rng = HmacDrbg(b"clamp")
    for occurrences in range(1, 60):
        sizes = get_rnd_bucket_sizes(occurrences, 5, rng)
        assert sizes[-1] >= 1
        assert sum(sizes) == occurrences


@settings(max_examples=50)
@given(occurrences=st.integers(1, 500), bsmax=st.integers(1, 20))
def test_bucket_invariants_property(occurrences: int, bsmax: int):
    sizes = get_rnd_bucket_sizes(occurrences, bsmax, HmacDrbg(b"p"))
    assert sum(sizes) == occurrences
    assert all(1 <= size <= bsmax for size in sizes)
    assert len(sizes) <= occurrences


def test_expected_bucket_count_formula():
    """E[#bs] ~ 2*|oc|/(1+bsmax): empirical mean within 10% for large |oc|."""
    rng = HmacDrbg(b"mean")
    occurrences, bsmax = 1000, 9
    trials = [len(get_rnd_bucket_sizes(occurrences, bsmax, rng)) for _ in range(200)]
    mean = sum(trials) / len(trials)
    assert mean == pytest.approx(expected_bucket_count(occurrences, bsmax), rel=0.10)
