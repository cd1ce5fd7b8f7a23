"""SQL surface extensions: IN, LIKE-prefix, NOT, DISTINCT.

A LIKE prefix on an encrypted column is notable: the proxy converts it to
the prefix's closed ordinal interval, so the server sees an ordinary
encrypted range filter — query-type hiding extends to prefix search for
free, a direct consequence of range-searchable encryption.
"""

from __future__ import annotations

import pytest

from repro import EncDBDBSystem
from repro.columnstore.types import VarcharType
from repro.exceptions import PlanError, SqlSyntaxError

ROWS = [
    ("PROD-001", "eu", 1),
    ("PROD-002", "us", 2),
    ("MISC-001", "eu", 3),
    ("PROD-002", "eu", 2),
    ("PROD-010", "ap", 5),
]


@pytest.fixture
def system() -> EncDBDBSystem:
    system = EncDBDBSystem.create(seed=55)
    system.execute(
        "CREATE TABLE t (sku ED2 VARCHAR(12), region VARCHAR(6), n ED1 INTEGER)"
    )
    system.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"('{s}', '{r}', {n})" for s, r, n in ROWS)
    )
    return system


def _reference(predicate):
    return sorted(s for s, r, n in ROWS if predicate(s, r, n))


# ----------------------------------------------------------------------
# IN
# ----------------------------------------------------------------------


def test_in_on_encrypted_integer(system):
    result = system.query("SELECT sku FROM t WHERE n IN (1, 3, 99) ORDER BY sku")
    assert [r[0] for r in result] == _reference(lambda s, r, n: n in (1, 3, 99))


def test_in_on_encrypted_varchar(system):
    result = system.query(
        "SELECT n FROM t WHERE sku IN ('PROD-001', 'MISC-001')"
    )
    assert sorted(r[0] for r in result) == [1, 3]


def test_in_single_member_is_equality(system):
    result = system.query("SELECT sku FROM t WHERE n IN (2)")
    assert sorted(r[0] for r in result) == ["PROD-002", "PROD-002"]


def test_in_each_member_is_a_separate_encrypted_range(system):
    """Query-type hiding: each IN member becomes its own encrypted range.

    The three dictionary searches still happen — the enclave serves them
    through a single batched boundary crossing (at every cache size, see
    ``test_search_path.py``).
    """
    cost = system.server.cost_model
    before_ecalls = cost.ecalls
    before_batches = cost.ecalls_by_name.get("dict_search_batch", 0)
    system.query("SELECT sku FROM t WHERE n IN (1, 2, 3)")
    # 3 members -> 3 dictionary searches on column n, one batch ecall.
    assert cost.ecalls - before_ecalls == 1
    assert cost.ecalls_by_name.get("dict_search_batch", 0) - before_batches == 1


# ----------------------------------------------------------------------
# LIKE prefix
# ----------------------------------------------------------------------


def test_like_prefix_on_encrypted_column(system):
    result = system.query("SELECT sku FROM t WHERE sku LIKE 'PROD-0%' ORDER BY sku")
    assert [r[0] for r in result] == _reference(
        lambda s, r, n: s.startswith("PROD-0")
    )


def test_like_prefix_on_plaintext_column(system):
    result = system.query("SELECT region FROM t WHERE region LIKE 'e%'")
    assert sorted(r[0] for r in result) == ["eu", "eu", "eu"]


def test_like_full_wildcard_matches_everything(system):
    assert system.query("SELECT COUNT(*) FROM t WHERE sku LIKE '%'").scalar() == 5


def test_like_exact_prefix_boundaries(system):
    """'PROD-002%' must match PROD-002 itself but not PROD-0021-style longer
    values... and here, both PROD-002 rows."""
    result = system.query("SELECT n FROM t WHERE sku LIKE 'PROD-002%'")
    assert sorted(r[0] for r in result) == [2, 2]


def test_like_prefix_includes_delta_rows(system):
    system.execute("INSERT INTO t VALUES ('PROD-099', 'eu', 9)")
    result = system.query("SELECT COUNT(*) FROM t WHERE sku LIKE 'PROD-%'")
    assert result.scalar() == 5


def test_prefix_ordinal_range_is_tight():
    vt = VarcharType(6)
    low, high = vt.prefix_ordinal_range("ab")
    assert low == vt.ordinal("ab")
    assert low <= vt.ordinal("abz") <= high
    assert low <= vt.ordinal("ab\x7f\x7f\x7f\x7f") <= high
    assert not low <= vt.ordinal("ac") <= high
    assert not low <= vt.ordinal("aa") <= high


def test_like_unsupported_patterns_rejected(system):
    for pattern in ("%suffix", "mid%dle", "no_wildcard_", "exact"):
        with pytest.raises(PlanError):
            system.query(f"SELECT sku FROM t WHERE sku LIKE '{pattern}'")
    with pytest.raises(PlanError):
        system.query("SELECT sku FROM t WHERE n LIKE '1%'")  # not VARCHAR
    with pytest.raises(SqlSyntaxError):
        system.query("SELECT sku FROM t WHERE sku LIKE 5")


# ----------------------------------------------------------------------
# NOT
# ----------------------------------------------------------------------


def test_not_simple(system):
    result = system.query("SELECT sku FROM t WHERE NOT n = 2")
    assert sorted(r[0] for r in result) == _reference(lambda s, r, n: n != 2)


def test_not_over_compound_predicate(system):
    result = system.query(
        "SELECT sku FROM t WHERE NOT (n IN (1, 2) OR region = 'us')"
    )
    assert sorted(r[0] for r in result) == _reference(
        lambda s, r, n: not (n in (1, 2) or r == "us")
    )


def test_double_negation(system):
    result = system.query("SELECT sku FROM t WHERE NOT NOT n = 2")
    assert sorted(r[0] for r in result) == _reference(lambda s, r, n: n == 2)


def test_not_respects_validity(system):
    system.execute("DELETE FROM t WHERE n = 5")
    result = system.query("SELECT sku FROM t WHERE NOT n = 1")
    assert sorted(r[0] for r in result) == ["MISC-001", "PROD-002", "PROD-002"]


# ----------------------------------------------------------------------
# DISTINCT
# ----------------------------------------------------------------------


def test_distinct_single_column(system):
    result = system.query("SELECT DISTINCT sku FROM t ORDER BY sku")
    assert [r[0] for r in result] == sorted({s for s, _, _ in ROWS})


def test_distinct_multiple_columns(system):
    result = system.query("SELECT DISTINCT region, n FROM t")
    assert len(result) == len({(r, n) for _, r, n in ROWS})


def test_distinct_with_limit(system):
    result = system.query("SELECT DISTINCT sku FROM t ORDER BY sku LIMIT 2")
    assert [r[0] for r in result] == ["MISC-001", "PROD-001"]


def test_distinct_star(system):
    system.execute("INSERT INTO t VALUES ('PROD-002', 'eu', 2)")  # exact dup
    plain = system.query("SELECT * FROM t")
    distinct = system.query("SELECT DISTINCT * FROM t")
    assert len(plain) == len(distinct) + 1
