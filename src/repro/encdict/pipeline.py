"""The parallel, batched, streaming build pipeline (PR 4).

``EncDB`` — splitting a column, arranging its dictionary, and PAE-sealing
every value — is the write path the paper evaluates in Table 6, and until
this module it was fully serial and materialized whole tables before a
single byte was encrypted. The pipeline turns a bulk load (or the dirty
half of a merge) into a DAG of independent **(column × partition) build
tasks** executed on a bounded worker pool, with the source rows streamed
in partition-sized slices:

.. code-block:: text

    slice(p)  ──►  build(c₀, p) ─┐
              ──►  build(c₁, p) ─┼──►  assemble(p)  ──►  yield p (in order)
              ──►  build(c₂, p) ─┘

    slice(p+1) … runs while p's builds are still in flight (bounded window)

- **Parallel.** Tasks run on the shared build thread pool, or inline when
  one worker is requested or the host has one core; the fan-out defaults
  to ``ENCDBDB_BUILD_WORKERS`` (:mod:`repro.runtime`).
- **Deterministic.** Every task's randomness (bucket splits, rotation
  offsets, shuffles, PAE IVs) comes from DRBGs pre-derived per (column,
  partition) by :func:`~repro.encdict.builder.derive_partition_rngs`, so a
  parallel build is **bit-for-bit identical** to the serial
  :func:`~repro.encdict.builder.encdb_build_partitioned` loop — same
  ciphertexts, same attribute vectors, same ``BuildStats``.
- **Streaming with backpressure.** At most ``max_inflight_partitions``
  partitions of plaintext are resident at once; completed partitions are
  yielded in order while later slices are still being read, so peak memory
  on the build side is O(partition), not O(table).

Security: parallelism changes *when* each ciphertext is produced, never
*what* is produced (byte-identity with the serial build is tested), so the
Table 5 leakage profile is unchanged — see DESIGN.md §7.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping

from repro.columnstore.types import ColumnSpec, ValueType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import Pae
from repro.encdict.builder import BuildResult, encdb_build
from repro.encdict.options import EncryptedDictionaryKind
from repro.exceptions import CatalogError
from repro.runtime import (
    BUILD_THREAD_POOL,
    configured_workers,
    dispatch_decision,
    shared_pool,
    shutdown_pool,
)

#: Dispatch-log kind under which the pipeline records its inline/pool
#: choice (shown by BenchStats).
BUILD_DISPATCH = "build-pipeline"

__all__ = [
    "BuildPipeline",
    "BuildTask",
    "ColumnPlan",
    "PartitionBuild",
    "build_encrypt_operations",
    "shutdown_build_pools",
]


def shutdown_build_pools(wait: bool = True) -> None:
    """Release the shared build thread pool (owner teardown). Idempotent."""
    shutdown_pool(BUILD_THREAD_POOL, wait=wait)


# ----------------------------------------------------------------------
# Build tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuildTask:
    """One (column × partition) unit of the build DAG.

    Self-contained: the values slice plus the pre-derived DRBGs. Executing
    it touches no shared mutable state, which is exactly why tasks may run
    on any worker in any order.
    """

    table_name: str
    column_name: str
    kind: EncryptedDictionaryKind
    value_type: ValueType
    key: bytes
    bsmax: int
    partition_index: int
    values: tuple
    build_rng: HmacDrbg
    iv_rng: HmacDrbg


def _execute_build_task(task: BuildTask, pae: Pae) -> BuildResult:
    return encdb_build(
        list(task.values),
        task.kind,
        value_type=task.value_type,
        key=task.key,
        pae=pae,
        rng=task.build_rng,
        iv_rng=task.iv_rng,
        bsmax=task.bsmax,
        table_name=task.table_name,
        column_name=task.column_name,
        encrypted=True,
    )


def build_encrypt_operations(build: BuildResult) -> int:
    """PAE encryptions one build performed (entries + rotation offset)."""
    count = build.stats.dictionary_entries
    if build.dictionary.enc_rnd_offset is not None:
        count += 1
    return count


# ----------------------------------------------------------------------
# Pipeline inputs and outputs
# ----------------------------------------------------------------------
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


@dataclass
class _PendingPartition:
    index: int
    row_count: int
    futures: dict[str, Future] = field(default_factory=dict)
    plain_values: dict[str, list] = field(default_factory=dict)


def _partition_rng_stream(
    rng: HmacDrbg,
) -> Iterator[tuple[HmacDrbg, HmacDrbg]]:
    """Lazily yield the ``(build_rng, iv_rng)`` pairs of
    :func:`~repro.encdict.builder.derive_partition_rngs`, one partition at
    a time — identical streams, but usable when the partition count is not
    known up front (streamed sources)."""
    index = 0
    while True:
        build_rng = rng.fork(f"part-{index}")
        yield build_rng, build_rng.fork("pae-iv")
        index += 1


class BuildPipeline:
    """Orchestrates a streamed multi-column build over a bounded pool.

    Build tasks run inline in the calling thread when ``max_workers == 1``
    or the host has a single core, otherwise on the shared build thread
    pool (:func:`repro.runtime.dispatch_decision` records the choice).
    Both produce byte-identical artifacts; only wall-clock differs.
    """

    def __init__(
        self,
        *,
        pae: Pae,
        max_workers: int | None = None,
        max_inflight_partitions: int | None = None,
    ) -> None:
        self.pae = pae
        self.max_workers = (
            max_workers if max_workers is not None else configured_workers()
        )
        decision = dispatch_decision(
            BUILD_DISPATCH, requested_workers=self.max_workers
        )
        #: Pool size build tasks fan out over; 0 runs them inline.
        self.pool_workers = decision.workers if decision.parallel else 0
        # The backpressure window: how many partitions may hold plaintext
        # (and in-flight build state) at once. Bounds peak build-side
        # memory at O(max_inflight_partitions * partition_rows).
        self.max_inflight_partitions = (
            max_inflight_partitions
            if max_inflight_partitions is not None
            else max(2, 2 * self.max_workers)
        )
        if self.max_inflight_partitions < 1:
            raise CatalogError("max_inflight_partitions must be at least 1")

    # ------------------------------------------------------------------
    def _pool(self) -> Executor | None:
        if not self.pool_workers:
            return None
        return shared_pool(
            BUILD_THREAD_POOL, self.pool_workers, thread_name_prefix="encdb-build"
        )

    def _submit(self, pool: Executor | None, task: BuildTask) -> Future:
        if pool is not None:
            return pool.submit(_execute_build_task, task, self.pae)
        future: Future = Future()
        try:
            future.set_result(_execute_build_task(task, self.pae))
        except BaseException as exc:  # pragma: no cover - propagated
            future.set_exception(exc)
        return future

    def _collect(self, pending: _PendingPartition) -> PartitionBuild:
        finished = PartitionBuild(
            index=pending.index,
            row_count=pending.row_count,
            plain_values=pending.plain_values,
        )
        for name, future in pending.futures.items():
            finished.builds[name] = future.result()
        return finished

    # ------------------------------------------------------------------
    def build_stream(
        self,
        table_name: str,
        plans: Mapping[str, ColumnPlan],
        *,
        partition_rows: int,
    ) -> Iterator[PartitionBuild]:
        """Stream the (column × partition) DAG, yielding partitions in order.

        Slicing, encryption, and downstream consumption (storage-frame
        writing at the server) overlap: while partition *p* is being
        yielded, up to ``max_inflight_partitions`` later slices are already
        building on the pool. Raises :class:`CatalogError` when column
        sources run out of rows at different points.
        """
        if partition_rows <= 0:
            raise CatalogError("partition_rows must be positive")
        if not plans:
            raise CatalogError("bulk load requires at least one column")
        iterators = {name: iter(plan.source) for name, plan in plans.items()}
        rng_streams = {
            name: _partition_rng_stream(plan.rng)
            for name, plan in plans.items()
            if plan.spec.is_encrypted
        }
        pool = self._pool()
        window: deque[_PendingPartition] = deque()
        index = 0
        try:
            while True:
                chunks = {
                    name: list(islice(iterator, partition_rows))
                    for name, iterator in iterators.items()
                }
                lengths = {len(chunk) for chunk in chunks.values()}
                if lengths == {0}:
                    break
                if len(lengths) != 1:
                    raise CatalogError(
                        f"columns of {table_name!r} ran out of rows at "
                        f"different points (partition {index})"
                    )
                (row_count,) = lengths
                pending = _PendingPartition(index=index, row_count=row_count)
                for name, plan in plans.items():
                    if plan.spec.is_encrypted:
                        build_rng, iv_rng = next(rng_streams[name])
                        pending.futures[name] = self._submit(
                            pool,
                            BuildTask(
                                table_name=table_name,
                                column_name=plan.spec.name,
                                kind=plan.spec.protection,
                                value_type=plan.spec.value_type,
                                key=plan.key,
                                bsmax=plan.spec.bsmax,
                                partition_index=index,
                                values=tuple(chunks[name]),
                                build_rng=build_rng,
                                iv_rng=iv_rng,
                            ),
                        )
                    else:
                        pending.plain_values[name] = chunks[name]
                window.append(pending)
                index += 1
                # Backpressure: drain the oldest partition before slicing
                # beyond the window, keeping resident plaintext bounded.
                while len(window) >= self.max_inflight_partitions:
                    yield self._collect(window.popleft())
            while window:
                yield self._collect(window.popleft())
        finally:
            # On abandonment (consumer stopped early, or a task failed)
            # drop references to whatever was still in flight.
            for pending in window:
                for future in pending.futures.values():
                    future.cancel()

    def build_columns(
        self,
        table_name: str,
        plans: Mapping[str, ColumnPlan],
        *,
        partition_rows: int,
    ) -> tuple[dict[str, list[BuildResult]], dict[str, list]]:
        """Non-streaming convenience: run the DAG, collect whole columns.

        Returns ``(encrypted_builds, plain_columns)`` in the shape
        :meth:`repro.server.dbms.EncDBDBServer.bulk_load` consumes — the
        owner uses this when the server cannot accept a partition stream
        (e.g. a remote deployment whose wire protocol ships one payload).
        """
        encrypted: dict[str, list[BuildResult]] = {
            name: [] for name, plan in plans.items() if plan.spec.is_encrypted
        }
        plain: dict[str, list] = {
            name: []
            for name, plan in plans.items()
            if not plan.spec.is_encrypted
        }
        for partition in self.build_stream(
            table_name, plans, partition_rows=partition_rows
        ):
            for name, build in partition.builds.items():
                encrypted[name].append(build)
            for name, values in partition.plain_values.items():
                plain[name].extend(values)
        return encrypted, plain
