"""The streaming build: one partition of plaintext resident at a time.

``EncDB`` — splitting a column, arranging its dictionary, and PAE-sealing
every value — is the write path the paper evaluates in Table 6.
:func:`build_partitions` turns a bulk load into a stream of finished
partitions: every column source is sliced one partition at a time, each
encrypted column of the slice is built in the calling thread, and the
partition is yielded before the next slice is read.

.. code-block:: text

    slice(p)  ──►  build(c₀, p), build(c₁, p), …  ──►  yield p  ──►  slice(p+1)

- **Deterministic.** Every build's randomness (bucket splits, rotation
  offsets, shuffles, PAE IVs) comes from the DRBG pairs of
  :func:`~repro.encdict.builder.partition_rng_stream`, so the stream is
  **bit-for-bit identical** to the serial
  :func:`~repro.encdict.builder.encdb_build_partitioned` loop over
  materialized columns — same ciphertexts, same attribute vectors, same
  ``BuildStats``.
- **Streaming.** Sources may be generators; the consumer (storage-frame
  writing at the server, span shipping at the cluster router) runs between
  two slices, so peak memory on the build side is O(partition), not
  O(table).

Security: streaming changes *when* each ciphertext is produced, never
*what* is produced (byte-identity with the serial build is tested), so the
Table 5 leakage profile is unchanged — see DESIGN.md §7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.columnstore.types import ColumnSpec
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import Pae
from repro.encdict.builder import BuildResult, encdb_build, partition_rng_stream
from repro.exceptions import CatalogError

__all__ = ["ColumnPlan", "PartitionBuild", "build_partitions"]


@dataclass
class ColumnPlan:
    """One column's contribution to a streamed build.

    ``source`` may be any iterable — including a generator — consumed in
    row order, one partition slice at a time. Encrypted columns need their
    per-column key ``SKD`` and column DRBG (the owner derives both);
    plaintext columns pass values through unencrypted.
    """

    spec: ColumnSpec
    source: Iterable[Any]
    key: bytes | None = None
    rng: HmacDrbg | None = None

    def __post_init__(self) -> None:
        if self.spec.is_encrypted and (self.key is None or self.rng is None):
            raise CatalogError(
                f"encrypted column {self.spec.name!r} needs a key and a DRBG"
            )


@dataclass
class PartitionBuild:
    """One completed partition, every column aligned to the same rows."""

    index: int
    row_count: int
    builds: dict[str, BuildResult] = field(default_factory=dict)
    plain_values: dict[str, list] = field(default_factory=dict)


def build_partitions(
    table_name: str,
    plans: Mapping[str, ColumnPlan],
    *,
    partition_rows: int,
    pae: Pae,
) -> Iterator[PartitionBuild]:
    """Build a table partition by partition, yielding each in order.

    Sources that are all empty yield nothing. Raises :class:`CatalogError`
    when column sources run out of rows at different points.
    """
    if partition_rows <= 0:
        raise CatalogError("partition_rows must be positive")
    if not plans:
        raise CatalogError("bulk load requires at least one column")
    iterators = {name: iter(plan.source) for name, plan in plans.items()}
    rng_streams = {
        name: partition_rng_stream(plan.rng)
        for name, plan in plans.items()
        if plan.spec.is_encrypted
    }
    for index in itertools.count():
        chunks = {
            name: list(itertools.islice(iterator, partition_rows))
            for name, iterator in iterators.items()
        }
        lengths = {len(chunk) for chunk in chunks.values()}
        if lengths == {0}:
            return
        if len(lengths) != 1:
            raise CatalogError(
                f"columns of {table_name!r} ran out of rows at "
                f"different points (partition {index})"
            )
        (row_count,) = lengths
        partition = PartitionBuild(index=index, row_count=row_count)
        for name, plan in plans.items():
            if not plan.spec.is_encrypted:
                partition.plain_values[name] = chunks[name]
                continue
            build_rng, iv_rng = next(rng_streams[name])
            partition.builds[name] = encdb_build(
                chunks[name],
                plan.spec.protection,
                value_type=plan.spec.value_type,
                key=plan.key,
                pae=pae,
                rng=build_rng,
                iv_rng=iv_rng,
                bsmax=plan.spec.bsmax,
                table_name=table_name,
                column_name=plan.spec.name,
            )
        yield partition
