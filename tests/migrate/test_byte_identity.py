"""Rotated ciphertext is deterministic: byte-identical to a from-scratch
build and identical across independently rotating replicas.

``rotate_partition`` derives its build DRBG from (SKDB, rotation target,
partition index) via :func:`derive_rotation_seed` with the canonical
per-partition fork discipline — so the artifacts it emits are a pure
function of data + key, never of rotation order, timing, or which replica
ran it. This is what lets cluster replicas rotate without coordinating.
"""

from __future__ import annotations

import itertools

from repro.client.session import EncDBDBSystem
from repro.columnstore.storage import encrypted_partition_frame
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key, derive_rotation_seed
from repro.encdict.builder import encdb_build, partition_rng_stream
from repro.encdict.options import kind_by_name
from repro.columnstore.types import IntegerType

ROWS = 40
VALUES = [(i * 3) % 11 for i in range(ROWS)]
PARTITION_ROWS = 10
NEW_KIND = "ED9"
NEW_EPOCH = 1


def _deploy(seed: int) -> EncDBDBSystem:
    system = EncDBDBSystem.create(seed=seed)
    system.execute("CREATE TABLE t (v ED3 INTEGER)")
    system.bulk_load("t", {"v": list(VALUES)}, partition_rows=PARTITION_ROWS)
    return system


def _frames(system: EncDBDBSystem) -> list[bytes]:
    column = system.server.catalog.table("t").column("v")
    return [
        encrypted_partition_frame(build, pid)
        for build, pid in zip(column.partition_builds, column.partition_ids)
    ]


def test_rotation_matches_from_scratch_deterministic_build():
    system = _deploy(seed=3)
    system.migrate("t", "v", new_kind=NEW_KIND, rotate_key=True)
    rotated = _frames(system)

    # The data owner's reference: re-derive the rotation DRBG tree from the
    # master key and rebuild each partition's plaintext rows from scratch.
    master = system.owner.master_key
    root = HmacDrbg(derive_rotation_seed(master, "t", "v", NEW_KIND, NEW_EPOCH))
    key = derive_column_key(master, "t", "v", key_epoch=NEW_EPOCH)
    partitions = [
        VALUES[start : start + PARTITION_ROWS]
        for start in range(0, ROWS, PARTITION_ROWS)
    ]
    rngs = itertools.islice(partition_rng_stream(root), len(partitions))
    column = system.server.catalog.table("t").column("v")
    reference = []
    for index, (values, (build_rng, iv_rng)) in enumerate(zip(partitions, rngs)):
        build = encdb_build(
            values,
            kind_by_name(NEW_KIND),
            value_type=IntegerType(),
            key=key,
            pae=system.owner.pae,
            rng=build_rng,
            iv_rng=iv_rng,
            table_name="t",
            column_name="v",
        )
        reference.append(
            encrypted_partition_frame(build, column.partition_ids[index])
        )
    assert rotated == reference


def test_independent_rotations_converge():
    """Two deployments with the same key and data — e.g. two replicas —
    rotate independently and end up with identical ciphertext bytes."""
    a, b = _deploy(seed=3), _deploy(seed=3)
    a.migrate("t", "v", new_kind=NEW_KIND, rotate_key=True)
    # Replica b steps its migration one step at a time, interleaved with
    # nothing — order and pacing must not matter.
    b.server.migrate_start("t", "v", new_kind=NEW_KIND, rotate_key=True)
    status = b.server.migrate_status("t", "v")[0]
    while status.state == "running":
        status = b.server.migrate_step("t", "v")
    assert status.state == "done", status.error
    assert _frames(a) == _frames(b)


def test_different_targets_draw_different_streams():
    """The rotation DRBG is bound to the full target (kind + epoch): a
    different target must not reuse IV/arrangement streams."""
    a, b = _deploy(seed=3), _deploy(seed=3)
    a.migrate("t", "v", new_kind=NEW_KIND, rotate_key=True)
    b.migrate("t", "v", new_kind=NEW_KIND)  # same kind, epoch stays 0
    assert _frames(a) != _frames(b)
