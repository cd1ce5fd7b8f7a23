"""The parallel streaming build pipeline (PR 4).

The load-bearing property is bit-for-bit determinism: for every ED kind,
the pipeline — inline or on the thread pool, with any worker count — must
produce exactly the artifacts of the serial ``encdb_build_partitioned``
reference: same ciphertext dictionaries, same rotation offsets, same
attribute vectors, same ``BuildStats``. Everything else (streaming order,
backpressure) is bookkeeping around that.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime as runtime
from repro.columnstore.types import ColumnSpec, parse_type
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import default_pae
from repro.encdict.builder import derive_partition_rngs, encdb_build_partitioned
from repro.encdict.options import ALL_KINDS, kind_by_name
from repro.encdict.pipeline import (
    BuildPipeline,
    ColumnPlan,
    build_encrypt_operations,
    shutdown_build_pools,
)
from repro.exceptions import CatalogError
from repro.runtime import BUILD_THREAD_POOL, configured_workers, pool_workers

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


@pytest.fixture
def multicore(monkeypatch):
    """Pin the host to 4 cores so ``max_workers > 1`` really uses the pool."""
    monkeypatch.setattr(runtime, "detected_cores", lambda: 4)


@pytest.mark.parametrize("kind_name", [kind.name for kind in ALL_KINDS])
@pytest.mark.parametrize(
    "max_workers", [pytest.param(1, id="serial"), pytest.param(3, id="thread")]
)
def test_pipeline_matches_serial_builder_for_every_kind(
    kind_name, max_workers, multicore
):
    kind = kind_by_name(kind_name)
    reference, reference_encrypts = _reference(kind)
    pae = default_pae(rng=HmacDrbg(b"pipe-pae"))
    pipeline = BuildPipeline(pae=pae, max_workers=max_workers)
    assert pipeline.pool_workers == (0 if max_workers == 1 else 3)
    encrypted, plain = pipeline.build_columns(
        "t", {"c": _plan(kind)}, partition_rows=PARTITION_ROWS
    )
    assert plain == {}
    _assert_identical(reference, encrypted["c"])
    # Batched encryption changes no counts: entry + offset encryptions of a
    # parallel build equal the serial builder's, exactly.
    assert pae.encrypt_count == reference_encrypts


def test_build_encrypt_operations_counts_offset():
    builds, encrypts = _reference(kind_by_name("ED2"))  # rotated: has offset
    assert sum(build_encrypt_operations(b) for b in builds) == encrypts


def test_partition_rng_pairs_are_execution_order_independent():
    """Pre-derived (build, iv) DRBGs are a pure function of the column seed
    and the partition index — deriving 4 up front equals deriving lazily."""
    eager = derive_partition_rngs(HmacDrbg(b"x"), 4)
    lazy_parent = HmacDrbg(b"x")
    for index, (build_rng, iv_rng) in enumerate(eager):
        lazy_build = lazy_parent.fork(f"part-{index}")
        lazy_iv = lazy_build.fork("pae-iv")
        assert lazy_build.random_bytes(16) == build_rng.random_bytes(16)
        assert lazy_iv.random_bytes(16) == iv_rng.random_bytes(16)


def test_stream_yields_partitions_in_order_with_mixed_columns(pae):
    enc_spec = ColumnSpec("e", INT, protection=kind_by_name("ED1"), bsmax=4)
    plain_spec = ColumnSpec("p", INT)
    plans = {
        "e": ColumnPlan(enc_spec, iter(VALUES), key=KEY, rng=HmacDrbg(b"e")),
        "p": ColumnPlan(plain_spec, iter(range(ROWS))),
    }
    partitions = list(
        BuildPipeline(pae=pae, max_workers=2).build_stream(
            "t", plans, partition_rows=50
        )
    )
    assert [part.index for part in partitions] == [0, 1, 2]
    assert [part.row_count for part in partitions] == [50, 50, 20]
    assert [len(part.builds["e"].attribute_vector) for part in partitions] == [50, 50, 20]
    restored = [v for part in partitions for v in part.plain_values["p"]]
    assert restored == list(range(ROWS))


def test_stream_backpressure_bounds_source_consumption(pae):
    """At yield time of partition i, the source may be consumed at most
    ``max_inflight_partitions`` partitions ahead — O(partition) residency."""
    consumed = 0

    def source():
        nonlocal consumed
        for value in VALUES:
            consumed += 1
            yield value

    spec = ColumnSpec("c", INT, protection=kind_by_name("ED3"), bsmax=4)
    plans = {"c": ColumnPlan(spec, source(), key=KEY, rng=HmacDrbg(b"c"))}
    pipeline = BuildPipeline(
        pae=pae, max_workers=2, max_inflight_partitions=2
    )
    rows = 10
    for part in pipeline.build_stream("t", plans, partition_rows=rows):
        # windowed slicing: everything yielded + at most the inflight window
        # (plus the one-slice lookahead that detects exhaustion).
        assert consumed <= (part.index + 1 + 2 + 1) * rows


def test_stream_rejects_mismatched_column_lengths(pae):
    enc_spec = ColumnSpec("e", INT, protection=kind_by_name("ED1"), bsmax=4)
    plain_spec = ColumnSpec("p", INT)
    plans = {
        "e": ColumnPlan(enc_spec, iter(VALUES), key=KEY, rng=HmacDrbg(b"e")),
        "p": ColumnPlan(plain_spec, iter(range(ROWS - 7))),
    }
    pipeline = BuildPipeline(pae=pae, max_workers=2)
    with pytest.raises(CatalogError, match="different points"):
        list(pipeline.build_stream("t", plans, partition_rows=50))


def test_column_plan_requires_key_and_rng_for_encrypted_columns():
    spec = ColumnSpec("c", INT, protection=kind_by_name("ED1"), bsmax=4)
    with pytest.raises(CatalogError, match="needs a key"):
        ColumnPlan(spec, [1, 2, 3])


def test_single_worker_falls_back_to_serial(pae, multicore):
    assert BuildPipeline(pae=pae, max_workers=1).pool_workers == 0


def test_single_core_host_builds_inline(pae, monkeypatch):
    monkeypatch.setattr(runtime, "detected_cores", lambda: 1)
    pipeline = BuildPipeline(pae=pae, max_workers=3)
    assert pipeline.pool_workers == 0
    shutdown_build_pools()
    encrypted, _ = pipeline.build_columns(
        "t", {"c": _plan(kind_by_name("ED1"))}, partition_rows=PARTITION_ROWS
    )
    _assert_identical(_reference(kind_by_name("ED1"))[0], encrypted["c"])
    assert pool_workers(BUILD_THREAD_POOL) == 0  # no pool was ever created


def test_worker_knob_env_override(monkeypatch, pae):
    from repro.runtime import DEFAULT_WORKERS, detected_cores

    monkeypatch.setenv("ENCDBDB_BUILD_WORKERS", "7")
    assert configured_workers() == 7
    assert BuildPipeline(pae=pae).max_workers == 7
    monkeypatch.setenv("ENCDBDB_BUILD_WORKERS", "not-a-number")
    # Malformed values are ignored; the built-in default is additionally
    # clamped to the detected core count (never a 4-worker pool on 1 core).
    assert configured_workers() == max(1, min(DEFAULT_WORKERS, detected_cores()))
    monkeypatch.setenv("ENCDBDB_BUILD_WORKERS", "-3")
    assert configured_workers() == 1  # clamped to a working pool size


def teardown_module() -> None:
    shutdown_build_pools()
