# lint: allow-file(boundary-import) justification="storage accounting plays the data owner: it builds every ED variant locally to measure Table 6 sizes; it never runs in the server role"
# lint: allow-file(forbidden-symbol) justification="key generation happens in-process because the harness is the data owner for its own builds"
"""Storage accounting regenerating paper Table 6.

For one column, computes the size of:

- the *plaintext file* (all values, no compression),
- the *encrypted file* (every value individually PAE-encrypted, no
  dictionary encoding),
- the MonetDB string column model,
- EncDBDB with ED1-ED3 (one dictionary entry per unique value),
- EncDBDB with ED4-ED6 at several ``bsmax`` values,
- EncDBDB with ED7-ED9 (one entry per row).

Within a repetition option the three order options have identical sizes (a
rotation or shuffle does not change entry counts; the rotated kinds add one
36-byte encrypted offset), so one build per repetition option suffices —
exactly how Table 6 groups its rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.columnstore.dictionary import attribute_vector_bytes
from repro.columnstore.monetdb_sim import MonetDBStringColumn
from repro.columnstore.types import ValueType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import PAE_OVERHEAD_BYTES, Pae, default_pae, pae_gen
from repro.encdict.builder import encdb_build
from repro.encdict.options import ED1, ED4, ED7, EncryptedDictionaryKind


def plaintext_file_bytes(values: Sequence[str], value_type: ValueType) -> int:
    """All values back to back, uncompressed (Table 6 'Plaintext file')."""
    return sum(len(value_type.to_bytes(value)) for value in values)


def encrypted_file_bytes(values: Sequence[str], value_type: ValueType) -> int:
    """Every value individually PAE-encrypted (Table 6 'Encrypted file')."""
    return plaintext_file_bytes(values, value_type) + PAE_OVERHEAD_BYTES * len(values)


def encdbdb_column_bytes(
    values: Sequence[str],
    kind: EncryptedDictionaryKind,
    *,
    value_type: ValueType,
    bsmax: int,
    pae: Pae,
    rng: HmacDrbg,
) -> int:
    """Dictionary head + tail + packed attribute vector for one kind."""
    key = pae_gen(rng=rng.fork("key"))
    build = encdb_build(
        list(values),
        kind,
        value_type=value_type,
        key=key,
        pae=pae,
        rng=rng.fork("build"),
        bsmax=bsmax,
    )
    dictionary = build.dictionary
    return dictionary.storage_bytes() + attribute_vector_bytes(
        len(build.attribute_vector), len(dictionary)
    )


def storage_table_for_column(
    values: Sequence[str],
    *,
    string_length: int,
    bsmax_values: Sequence[int] = (100, 10, 2),
    seed: bytes = b"storage-bench",
) -> dict[str, int]:
    """All Table 6 rows for one column, in bytes."""
    rng = HmacDrbg(seed)
    pae = default_pae(rng=rng.fork("pae"))
    value_type = VarcharType(string_length)
    table: dict[str, int] = {
        "Plaintext file": plaintext_file_bytes(values, value_type),
        "Encrypted file": encrypted_file_bytes(values, value_type),
        "MonetDB": MonetDBStringColumn(values).storage_bytes(),
        "ED1/ED2/ED3": encdbdb_column_bytes(
            values, ED1, value_type=value_type, bsmax=1, pae=pae,
            rng=rng.fork("revealing"),
        ),
    }
    for bsmax in bsmax_values:
        table[f"ED4/ED5/ED6, bsmax={bsmax}"] = encdbdb_column_bytes(
            values, ED4, value_type=value_type, bsmax=bsmax, pae=pae,
            rng=rng.fork(f"smoothing-{bsmax}"),
        )
    table["ED7/ED8/ED9"] = encdbdb_column_bytes(
        values, ED7, value_type=value_type, bsmax=1, pae=pae, rng=rng.fork("hiding")
    )
    return table
