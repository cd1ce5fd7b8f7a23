"""EncDB construction invariants for all nine encrypted dictionaries."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.columnstore.dictionary import attribute_vector_bytes
from repro.columnstore.types import IntegerType, VarcharType
from repro.crypto.pae import PAE_OVERHEAD_BYTES
from repro.encdict.options import (
    ALL_KINDS,
    ED1,
    ED2,
    ED3,
    ED5,
    ED7,
    RepetitionOption,
)
from repro.exceptions import CatalogError

from tests.encdict.conftest import EdHarness

NAMES = ["Jessica", "Jessica", "Archie", "Archie", "Jessica", "Hans", "Ella"]


def _decrypt_dictionary(harness: EdHarness, build) -> list:
    """White-box decryption of all entries, in ValueID order."""
    value_type = build.dictionary.value_type
    return [
        value_type.from_bytes(harness.pae.decrypt(harness.key, blob))
        for blob in build.dictionary.entries()
    ]


def test_split_correctness_definition1(harness, kind):
    """D[AV[j]] == C[j] for every RecordID j (paper Definition 1)."""
    build = harness.build(NAMES, kind)
    dictionary = _decrypt_dictionary(harness, build)
    assert len(build.attribute_vector) == len(NAMES)
    for record_id, value in enumerate(NAMES):
        assert dictionary[build.attribute_vector[record_id]] == value


def test_split_correctness_integers(harness, kind):
    values = [5, -3, 5, 5, 100, -3, 0]
    build = harness.build(values, kind, value_type=IntegerType())
    dictionary = _decrypt_dictionary(harness, build)
    for record_id, value in enumerate(values):
        assert dictionary[build.attribute_vector[record_id]] == value


def test_dictionary_sizes_match_table3(harness):
    """|D| = |un(C)| (revealing) and |D| = |AV| (hiding)."""
    unique_count = len(set(NAMES))
    for kind in ALL_KINDS:
        build = harness.build(NAMES, kind)
        if kind.repetition is RepetitionOption.REVEALING:
            assert build.stats.dictionary_entries == unique_count
        elif kind.repetition is RepetitionOption.HIDING:
            assert build.stats.dictionary_entries == len(NAMES)
        else:
            assert unique_count <= build.stats.dictionary_entries <= len(NAMES)


def test_smoothing_expected_dictionary_size(harness):
    """|D| ~ sum_v 2|oc(C,v)|/(1+bsmax) for frequency smoothing."""
    values = [f"v{i % 20}" for i in range(2000)]  # 20 uniques x 100
    bsmax = 9
    build = harness.build(values, ALL_KINDS[3], bsmax=bsmax)  # ED4
    expected = sum(2 * 100 / (1 + bsmax) for _ in range(20))
    assert build.stats.dictionary_entries == pytest.approx(expected, rel=0.35)


def test_frequency_bound_of_smoothing(harness):
    """Every ValueID occurs between 1 and bsmax times in AV (Table 3)."""
    values = [f"v{i % 5}" for i in range(500)]
    for kind in ALL_KINDS[3:6]:  # ED4, ED5, ED6
        build = harness.build(values, kind, bsmax=4)
        counts = Counter(build.attribute_vector.tolist())
        assert set(counts) == set(range(build.stats.dictionary_entries))
        assert all(1 <= c <= 4 for c in counts.values()), counts


def test_frequency_hiding_uses_every_valueid_once(harness):
    values = ["a", "b", "a", "a", "c"]
    for kind in ALL_KINDS[6:9]:  # ED7, ED8, ED9
        build = harness.build(values, kind)
        counts = Counter(build.attribute_vector.tolist())
        assert all(count == 1 for count in counts.values())
        assert len(counts) == len(values)


def test_sorted_kinds_store_sorted_plaintexts(harness):
    for kind in (ALL_KINDS[0], ALL_KINDS[3], ALL_KINDS[6]):  # ED1/4/7
        build = harness.build(NAMES, kind)
        dictionary = _decrypt_dictionary(harness, build)
        assert dictionary == sorted(dictionary)


def test_rotated_kinds_are_rotation_of_sorted(harness):
    for kind in (ALL_KINDS[1], ALL_KINDS[4], ALL_KINDS[7]):  # ED2/5/8
        build = harness.build(NAMES, kind)
        dictionary = _decrypt_dictionary(harness, build)
        offset = build.stats.rnd_offset
        assert offset is not None and 0 <= offset < len(dictionary)
        unrotated = [
            dictionary[(j + offset) % len(dictionary)] for j in range(len(dictionary))
        ]
        assert unrotated == sorted(dictionary)
        assert build.dictionary.enc_rnd_offset is not None


def test_unrotated_kinds_have_no_offset(harness):
    for kind in (ED1, ED3, ED7):
        build = harness.build(NAMES, kind)
        assert build.stats.rnd_offset is None
        assert build.dictionary.enc_rnd_offset is None


def test_ed1_matches_paper_figure3b(harness):
    """Figure 3: sorted unique dictionary [Archie, Ella, Hans, Jessica]."""
    column = ["Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"]
    build = harness.build(column, ED1)
    assert _decrypt_dictionary(harness, build) == [
        "Archie",
        "Ella",
        "Hans",
        "Jessica",
    ]
    assert build.attribute_vector.tolist() == [2, 3, 0, 1, 3, 3]


def test_unsorted_shuffle_is_key_independent_of_order(harness):
    """ED3's dictionary is a permutation of the unique values."""
    build = harness.build(NAMES, ED3)
    dictionary = _decrypt_dictionary(harness, build)
    assert sorted(dictionary) == sorted(set(NAMES))


def test_probabilistic_encryption_of_duplicates(harness):
    """ED7 stores equal plaintexts under distinct ciphertexts."""
    build = harness.build(["x", "x", "x"], ED7)
    blobs = list(build.dictionary.entries())
    assert len(blobs) == 3
    assert len({bytes(blob) for blob in blobs}) == 3


def test_storage_accounting(harness):
    build = harness.build(NAMES, ED1)
    dictionary = build.dictionary
    expected_tail = sum(
        len(value.encode()) + PAE_OVERHEAD_BYTES for value in set(NAMES)
    )
    assert dictionary.tail_bytes() == expected_tail
    assert dictionary.head_bytes() == 8 * len(set(NAMES))
    assert dictionary.storage_bytes() == expected_tail + dictionary.head_bytes()
    # 1 B/vid
    assert attribute_vector_bytes(len(NAMES), len(dictionary)) == len(NAMES)


def test_empty_column_rejected(harness):
    with pytest.raises(CatalogError):
        harness.build([], ED1)


def test_encrypted_build_requires_key_material():
    from repro.crypto.drbg import HmacDrbg
    from repro.encdict.builder import encdb_build

    with pytest.raises(CatalogError):
        encdb_build(
            ["a"],
            ED1,
            value_type=VarcharType(5),
            key=None,
            pae=None,
            rng=HmacDrbg(b"x"),
        )


def test_values_validated_against_type(harness):
    with pytest.raises(CatalogError):
        harness.build(["ok", 5], ED1, value_type=VarcharType(5))
    with pytest.raises(CatalogError):
        harness.build(["too long for type"], ED1, value_type=VarcharType(4))


def test_plain_build_skips_encryption(harness):
    build = harness.build(NAMES, ED1, encrypted=False)
    value_type = build.dictionary.value_type
    plaintexts = [value_type.from_bytes(b) for b in build.dictionary.entries()]
    assert plaintexts == sorted(set(NAMES))
    assert not build.dictionary.encrypted


def test_plain_rotated_build_keeps_raw_offset(harness):
    build = harness.build(NAMES, ED2, encrypted=False)
    raw = build.dictionary.enc_rnd_offset
    assert raw is not None
    assert int.from_bytes(raw, "big") == build.stats.rnd_offset


def test_single_value_column(harness, kind):
    build = harness.build(["only"], kind)
    assert build.stats.dictionary_entries == 1
    assert build.attribute_vector.tolist() == [0]
