"""The bitonic network and the oblivious shuffle: correctness and
access-pattern independence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.sgx.oblivious import TraceRecorder, _bitonic_order, oblivious_shuffle


def reference_bitonic_sort(items, key, trace=None):
    """The scalar bitonic network, one Python compare-exchange per pair.

    The oracle for the vectorised network: same schedule, same
    ``swap = (left > right) == ascending`` rule (so equal keys in a
    descending pair swap), same trace.
    """
    n = len(items)
    if n <= 1:
        return list(items)
    length = 1
    while length < n:
        length *= 2
    sentinel = object()
    buffer = list(items) + [sentinel] * (length - n)

    def keyed(value):
        # (0, key) sorts before (1,): sentinels sink to the end.
        return (1,) if value is sentinel else (0, key(value))

    block = 2
    while block <= length:
        stride = block // 2
        while stride > 0:
            for i in range(length):
                partner = i ^ stride
                if partner > i:
                    if trace is not None:
                        trace.record(i, partner)
                    ascending = (i & block) == 0
                    left, right = buffer[i], buffer[partner]
                    swap = (keyed(left) > keyed(right)) == ascending
                    buffer[i], buffer[partner] = (right, left) if swap else (left, right)
            stride //= 2
        block *= 2
    return buffer[:n]


def _stream_tags(rng: HmacDrbg, count: int) -> list[bytes]:
    """16-byte tags cut from one read of the DRBG's pooled stream."""
    stream = rng.read(16 * count)
    return [stream[16 * i : 16 * (i + 1)] for i in range(count)]


def _order(keys, trace=None) -> list[int]:
    """Positions of integer ``keys`` in ascending order, by the network."""
    return _bitonic_order([np.asarray(keys, np.int64)], trace).tolist()


def _sorted(values, trace=None) -> list[int]:
    return [values[i] for i in _order(values, trace)]


def test_sorts_correctly():
    assert _sorted([3, 1, 2]) == [1, 2, 3]
    assert _sorted([]) == []
    assert _sorted([42]) == [42]
    assert _sorted(list(range(10))[::-1]) == list(range(10))


def test_sort_with_key():
    items = [("b", 2), ("a", 9), ("c", 1)]
    assert [items[i] for i in _order([pair[1] for pair in items])] == [
        ("c", 1), ("b", 2), ("a", 9),
    ]


def test_non_power_of_two_lengths():
    for n in (3, 5, 6, 7, 9, 13):
        values = [(i * 7) % n for i in range(n)]
        assert _sorted(values) == sorted(values)


@settings(max_examples=40)
@given(st.lists(st.integers(-100, 100), max_size=40))
def test_sort_matches_builtin_property(values):
    assert _sorted(values) == sorted(values)


def test_access_pattern_is_data_independent():
    """The compare-exchange sequence depends only on the length."""
    traces = []
    for values in ([4, 3, 2, 1, 0], [0, 1, 2, 3, 4], [7, 7, 7, 7, 7],
                   [-5, 100, 0, 3, -2]):
        recorder = TraceRecorder()
        _order(values, trace=recorder)
        traces.append(tuple(recorder.accesses))
    assert len(set(traces)) == 1


def test_access_pattern_differs_only_by_length():
    recorder_a, recorder_b = TraceRecorder(), TraceRecorder()
    _order(list(range(5)), trace=recorder_a)
    _order(list(range(9)), trace=recorder_b)
    assert recorder_a.accesses != recorder_b.accesses


def test_shuffle_is_permutation():
    items = list(range(30))
    shuffled = oblivious_shuffle(items, HmacDrbg(b"s"))
    assert sorted(shuffled) == items
    assert shuffled != items


def test_shuffle_reproducible_and_seed_sensitive():
    items = list(range(20))
    assert oblivious_shuffle(items, HmacDrbg(b"a")) == oblivious_shuffle(
        items, HmacDrbg(b"a")
    )
    assert oblivious_shuffle(items, HmacDrbg(b"a")) != oblivious_shuffle(
        items, HmacDrbg(b"b")
    )


def test_shuffle_trace_is_input_independent():
    recorder_a, recorder_b = TraceRecorder(), TraceRecorder()
    oblivious_shuffle(["x"] * 8, HmacDrbg(b"a"), trace=recorder_a)
    oblivious_shuffle(list(range(8)), HmacDrbg(b"zzz"), trace=recorder_b)
    assert recorder_a.accesses == recorder_b.accesses


def test_shuffle_roughly_uniform():
    """Each element lands in each position with similar frequency."""
    rng = HmacDrbg(b"uniformity")
    position_counts = {i: [0] * 4 for i in range(4)}
    for _ in range(400):
        shuffled = oblivious_shuffle([0, 1, 2, 3], rng)
        for position, element in enumerate(shuffled):
            position_counts[element][position] += 1
    for element, counts in position_counts.items():
        for count in counts:
            assert 55 <= count <= 145, position_counts  # expected 100


def test_merge_keeps_columns_row_aligned():
    """The oblivious merge shuffle must not desynchronize table columns."""
    from repro import EncDBDBSystem

    system = EncDBDBSystem.create(seed=99)
    system.execute("CREATE TABLE t (a ED2 VARCHAR(8), b ED9 INTEGER)")
    rows = [("x1", 1), ("x2", 2), ("x3", 3), ("x4", 4), ("x5", 5)]
    system.execute(
        "INSERT INTO t VALUES " + ", ".join(f"('{a}', {b})" for a, b in rows)
    )
    system.merge("t")
    for a, b in rows:
        result = system.query(f"SELECT b FROM t WHERE a = '{a}'")
        assert result.rows == [(b,)], (a, b)


# ----------------------------------------------------------------------
# The vectorised network against the scalar reference network
# ----------------------------------------------------------------------
NETWORK_SIZES = (0, 1, 2, 3, 5, 8, 9, 1_000, 4_096, 4_097, 6_200)


def _reference(keys):
    """(permutation, trace) of the scalar network sorting positions by keys."""
    trace = TraceRecorder()
    order = reference_bitonic_sort(list(range(len(keys))), keys.__getitem__, trace)
    return order, trace.accesses


def _tags_to_words(tags: list[bytes]) -> list[np.ndarray]:
    words = np.frombuffer(b"".join(tags), dtype=">u8").reshape(len(tags), 2)
    return [words[:, 0].astype(np.uint64), words[:, 1].astype(np.uint64)]


@pytest.mark.parametrize("n", NETWORK_SIZES)
def test_shuffle_matches_reference_network(n):
    """Same tags, same permutation and the same compare-exchange trace."""
    items = list(range(n))
    trace = TraceRecorder()
    shuffled = oblivious_shuffle(items, HmacDrbg(b"ref"), trace=trace)
    order, reference_trace = _reference(_stream_tags(HmacDrbg(b"ref"), n))
    assert shuffled == order
    assert trace.accesses == reference_trace


@pytest.mark.parametrize("n", NETWORK_SIZES)
def test_tied_and_repeated_tags_match_reference_network(n):
    """Equal tags keep the scalar network's tie behaviour, pair by pair."""
    fresh = _stream_tags(HmacDrbg(b"ties"), 7)
    for tags in ([fresh[0]] * n, [fresh[i % 7] for i in range(n)]):
        trace = TraceRecorder()
        order = _bitonic_order(_tags_to_words(tags), trace)
        reference_order, reference_trace = _reference(tags)
        assert order.tolist() == reference_order
        assert trace.accesses == reference_trace


@pytest.mark.parametrize("n", NETWORK_SIZES)
def test_integer_sort_matches_reference_network(n):
    """One int64 key column runs the same network as the scalar reference."""
    rng = HmacDrbg(b"keys")
    for keys in (
        [rng.randint(-50, 50) for _ in range(n)],
        [7] * n,
        [-(2**63), 2**63 - 1, 0] * (n // 3) + [0] * (n % 3),
    ):
        trace = TraceRecorder()
        order = _order(keys, trace)
        reference_order, reference_trace = _reference(keys)
        assert order == reference_order
        assert trace.accesses == reference_trace


@settings(max_examples=60)
@given(st.lists(st.integers(-3, 3), max_size=40))
def test_integer_sort_permutation_matches_reference_property(keys):
    assert _order(keys) == _reference(keys)[0]


def test_shuffle_draws_its_tags_as_one_stream():
    """The tags of 10 000 items (160 000 bytes, more than one request) are
    one read of the pooled stream: the generator's pool and state are left
    exactly where that read leaves them."""
    shuffled_rng, stream_rng = HmacDrbg(b"stream"), HmacDrbg(b"stream")
    oblivious_shuffle(list(range(10_000)), shuffled_rng)
    _stream_tags(stream_rng, 10_000)
    assert shuffled_rng.read(32) == stream_rng.read(32)
    assert shuffled_rng.random_bytes(32) == stream_rng.random_bytes(32)
