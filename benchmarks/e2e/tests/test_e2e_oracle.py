"""The plaintext oracle must catch what it claims to catch."""

import numpy as np

from benchmarks.e2e.oracle import (
    GroupOracle,
    RangeOracle,
    result_digest,
    row_hashes,
    string_array,
)


def _column(count=500, seed=3):
    generator = np.random.Generator(np.random.PCG64(seed))
    return [f"K{value:05d}" for value in generator.integers(0, 200, size=count)]


def test_range_oracle_matches_brute_force():
    values = _column()
    array = string_array(values, 6)
    oracle = RangeOracle(array, row_hashes([array]))
    for low, high in (("K00010", "K00050"), ("K00000", "K99999"), ("K00199", "K00199")):
        rows = [(value,) for value in values if low <= value <= high]
        assert oracle.expect(low, high) == result_digest(rows, (6,))
    assert oracle.expect("Z", "ZZ") == (0, 0) == result_digest([], (6,))


def test_digest_ignores_order_but_not_content():
    rows = [("AAA", 1), ("BBB", 2), ("CCC", 3)]
    widths = (3, None)
    assert result_digest(rows, widths) == result_digest(rows[::-1], widths)
    assert result_digest(rows, widths) != result_digest(rows[:2], widths)
    assert result_digest(rows, widths) != result_digest(rows + rows[:1], widths)
    # same multiset per column, different pairing
    swapped = [("AAA", 2), ("BBB", 1), ("CCC", 3)]
    assert result_digest(rows, widths) != result_digest(swapped, widths)


def test_window_rows_and_bounds():
    values = ["a", "a", "b", "c", "c", "c", "d"]
    array = string_array(values, 1)
    oracle = RangeOracle(array, row_hashes([array]))
    assert oracle.window_rows(2).tolist() == [3, 4, 4]
    assert oracle.window(1, 2) == ("b", "c")


def test_group_oracle():
    groups = string_array(["x", "y", "x", "z", "y"], 1)
    measure = np.array([1, 2, 3, 4, 50])
    assert GroupOracle(groups, measure).expect(1, 4) == {"x": (2, 4), "y": (1, 2), "z": (1, 4)}
