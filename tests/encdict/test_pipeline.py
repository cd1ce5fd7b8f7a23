"""The streaming build (``repro.encdict.pipeline.build_partitions``).

The load-bearing property is bit-for-bit determinism: for every ED kind the
stream must produce exactly the artifacts of the serial
``encdb_build_partitioned`` reference over a materialized column: same
ciphertext dictionaries, same rotation offsets, same attribute vectors,
same ``BuildStats``. Everything else (streaming order, one partition
resident at a time) is bookkeeping around that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnstore.types import ColumnSpec, parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.builder import (
    derive_partition_rngs,
    encdb_build_partitioned,
    partition_rng_stream,
)
from repro.encdict.options import ALL_KINDS, kind_by_name
from repro.encdict.pipeline import ColumnPlan, build_partitions
from repro.exceptions import CatalogError

INT = parse_type("INTEGER")
KEY = b"\x07" * 16
ROWS = 120
PARTITION_ROWS = 32  # -> 4 partitions (3 full + 1 tail)
VALUES = [((i * 11) % 17) + 3 for i in range(ROWS)]


def _reference(kind):
    """The serial builder's output plus its exact PAE encrypt count."""
    pae = default_pae(rng=HmacDrbg(b"ref-pae"))
    builds = encdb_build_partitioned(
        VALUES,
        kind,
        partition_rows=PARTITION_ROWS,
        value_type=INT,
        key=KEY,
        pae=pae,
        rng=HmacDrbg(b"col-seed"),
        bsmax=4,
        table_name="t",
        column_name="c",
    )
    return builds, pae.encrypt_count


def _plan(kind):
    spec = ColumnSpec("c", INT, protection=kind, bsmax=4)
    return ColumnPlan(spec, iter(VALUES), key=KEY, rng=HmacDrbg(b"col-seed"))


def _assert_identical(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert got.dictionary.tail == want.dictionary.tail
        assert np.array_equal(got.dictionary.offsets, want.dictionary.offsets)
        assert got.dictionary.enc_rnd_offset == want.dictionary.enc_rnd_offset
        assert np.array_equal(got.attribute_vector, want.attribute_vector)
        assert got.stats == want.stats


@pytest.mark.parametrize(
    "kind_name", [kind.name for kind in ALL_KINDS], ids=lambda name: f"serial-{name}"
)
def test_pipeline_matches_serial_builder_for_every_kind(kind_name):
    kind = kind_by_name(kind_name)
    reference, reference_encrypts = _reference(kind)
    pae = default_pae(rng=HmacDrbg(b"pipe-pae"))
    partitions = list(
        build_partitions(
            "t", {"c": _plan(kind)}, partition_rows=PARTITION_ROWS, pae=pae
        )
    )
    assert all(part.plain_values == {} for part in partitions)
    _assert_identical(reference, [part.builds["c"] for part in partitions])
    # Entry + offset encryptions of the stream equal the serial builder's.
    assert pae.encrypt_count == reference_encrypts


def test_partition_rng_pairs_are_execution_order_independent():
    """The (build, iv) DRBG pairs are a pure function of the column seed and
    the partition index: the list form, the lazy stream and hand-forking
    draw the same bytes."""
    eager = derive_partition_rngs(HmacDrbg(b"x"), 4)
    lazy = partition_rng_stream(HmacDrbg(b"x"))
    hand_parent = HmacDrbg(b"x")
    for index, (build_rng, iv_rng) in enumerate(eager):
        lazy_build, lazy_iv = next(lazy)
        hand_build = hand_parent.fork(f"part-{index}")
        hand_iv = hand_build.fork("pae-iv")
        assert (
            build_rng.random_bytes(16)
            == lazy_build.random_bytes(16)
            == hand_build.random_bytes(16)
        )
        assert (
            iv_rng.random_bytes(16)
            == lazy_iv.random_bytes(16)
            == hand_iv.random_bytes(16)
        )


def test_stream_yields_partitions_in_order_with_mixed_columns(pae):
    enc_spec = ColumnSpec("e", INT, protection=kind_by_name("ED1"), bsmax=4)
    plain_spec = ColumnSpec("p", INT)
    plans = {
        "e": ColumnPlan(enc_spec, iter(VALUES), key=KEY, rng=HmacDrbg(b"e")),
        "p": ColumnPlan(plain_spec, iter(range(ROWS))),
    }
    partitions = list(build_partitions("t", plans, partition_rows=50, pae=pae))
    assert [part.index for part in partitions] == [0, 1, 2]
    assert [part.row_count for part in partitions] == [50, 50, 20]
    assert [len(part.builds["e"].attribute_vector) for part in partitions] == [50, 50, 20]
    restored = [v for part in partitions for v in part.plain_values["p"]]
    assert restored == list(range(ROWS))


def test_stream_backpressure_bounds_source_consumption(pae):
    """At yield time of partition i the source has been consumed exactly
    through partition i, so one partition of plaintext is resident."""
    consumed = 0

    def source():
        nonlocal consumed
        for value in VALUES:
            consumed += 1
            yield value

    spec = ColumnSpec("c", INT, protection=kind_by_name("ED3"), bsmax=4)
    plans = {"c": ColumnPlan(spec, source(), key=KEY, rng=HmacDrbg(b"c"))}
    rows = 10
    for part in build_partitions("t", plans, partition_rows=rows, pae=pae):
        assert consumed == (part.index + 1) * rows


def test_abandoned_stream_builds_nothing_further(pae):
    """A consumer that stops early stops the build: no later slice is read
    and no later partition is encrypted."""
    consumed = 0

    def source():
        nonlocal consumed
        for value in VALUES:
            consumed += 1
            yield value

    spec = ColumnSpec("c", INT, protection=kind_by_name("ED1"), bsmax=4)
    plans = {"c": ColumnPlan(spec, source(), key=KEY, rng=HmacDrbg(b"c"))}
    stream = build_partitions("t", plans, partition_rows=10, pae=pae)
    next(stream)
    encrypts = pae.encrypt_count
    stream.close()
    assert consumed == 10
    assert pae.encrypt_count == encrypts


def test_stream_of_empty_sources_yields_nothing(pae):
    spec = ColumnSpec("c", INT, protection=kind_by_name("ED1"), bsmax=4)
    plans = {"c": ColumnPlan(spec, [], key=KEY, rng=HmacDrbg(b"c"))}
    assert list(build_partitions("t", plans, partition_rows=10, pae=pae)) == []
    assert pae.encrypt_count == 0


def test_stream_rejects_mismatched_column_lengths(pae):
    enc_spec = ColumnSpec("e", INT, protection=kind_by_name("ED1"), bsmax=4)
    plain_spec = ColumnSpec("p", INT)
    plans = {
        "e": ColumnPlan(enc_spec, iter(VALUES), key=KEY, rng=HmacDrbg(b"e")),
        "p": ColumnPlan(plain_spec, iter(range(ROWS - 7))),
    }
    with pytest.raises(CatalogError, match="different points"):
        list(build_partitions("t", plans, partition_rows=50, pae=pae))


def test_column_plan_requires_key_and_rng_for_encrypted_columns():
    spec = ColumnSpec("c", INT, protection=kind_by_name("ED1"), bsmax=4)
    with pytest.raises(CatalogError, match="needs a key"):
        ColumnPlan(spec, [1, 2, 3])
