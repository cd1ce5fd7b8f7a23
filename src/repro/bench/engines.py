# lint: allow-file(boundary-import) justification="the benchmark harness drives every deployment role in-process: it is the data owner (key generation, builds), the proxy (query encryption), and the DBMS host at once, mirroring the paper's single-machine evaluation"
# lint: allow-file(forbidden-symbol) justification="as the in-process data owner the harness generates SKDB-equivalent keys and derives column keys; none of this code ships in the server role"
"""The three engines compared in the paper's performance evaluation (§6.3).

All three answer the same range queries over the same column:

- :class:`MonetDbColumnEngine` — the plaintext commercial baseline with its
  insertion-ordered string dictionary and linear string-comparison scan.
- :class:`PlainDbdbColumnEngine` — PlainDBDB: EncDBDB's algorithms and
  layout, plaintext dictionaries, no enclave.
- :class:`EncDbdbColumnEngine` — the full system: PAE-encrypted dictionary,
  dictionary search inside the (simulated) enclave, untrusted attribute-
  vector search, and tuple reconstruction of the result column.

Latency is measured end to end per query, including tuple reconstruction
(the paper's observation that many results make C2 slower than C1 hinges on
that step).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.client.proxy import encrypt_search_range
from repro.columnstore.dictionary import attribute_vector_bytes
from repro.columnstore.monetdb_sim import MonetDBStringColumn
from repro.columnstore.types import ValueType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import Pae, default_pae, pae_gen
from repro.encdict.attrvect import attr_vect_search
from repro.encdict.builder import BuildResult, encdb_build
from repro.encdict.enclave_app import EncDBDBEnclave
from repro.encdict.options import EncryptedDictionaryKind
from repro.encdict.search import OrdinalRange, plain_search
from repro.sgx.attestation import AttestationService
from repro.sgx.cache import FastPathConfig
from repro.sgx.channel import SecureChannel
from repro.sgx.enclave import EnclaveHost
from repro.workloads.queries import RangeQuery


def _materialize_entries(build: BuildResult) -> np.ndarray:
    """Dictionary blobs as an object array for vectorized reconstruction.

    All three engines materialize result columns through one numpy
    fancy-indexing step, so the latency comparison reflects the search
    algorithms (the paper's point) rather than Python loop overhead.
    """
    dictionary = build.dictionary
    blobs = np.empty(len(dictionary), dtype=object)
    for index in range(len(dictionary)):
        blobs[index] = dictionary.entry(index)
    return blobs


class MonetDbColumnEngine:
    """Plaintext MonetDB baseline."""

    name = "MonetDB"

    def __init__(self, values: Sequence[str]) -> None:
        self._column = MonetDBStringColumn(values)

    def run(self, query: RangeQuery) -> int:
        record_ids = self._column.range_search(query.low, query.high)
        # Tuple reconstruction: materialize the result column.
        result = self._column._row_values[record_ids]
        return len(result)

    def storage_bytes(self) -> int:
        return self._column.storage_bytes()


class PlainDbdbColumnEngine:
    """PlainDBDB: same algorithms as EncDBDB, plaintext, no enclave."""

    name = "PlainDBDB"

    def __init__(
        self,
        values: Sequence[str],
        kind: EncryptedDictionaryKind,
        *,
        value_type: ValueType | None = None,
        bsmax: int = 10,
        rng: HmacDrbg | None = None,
    ) -> None:
        rng = rng if rng is not None else HmacDrbg(b"plaindbdb")
        self._value_type = value_type or VarcharType(30)
        self.build: BuildResult = encdb_build(
            list(values),
            kind,
            value_type=self._value_type,
            key=None,
            pae=None,
            rng=rng,
            bsmax=bsmax,
            encrypted=False,
        )

        self._entry_blobs = _materialize_entries(self.build)

    def run(self, query: RangeQuery) -> int:
        search = OrdinalRange(
            self._value_type.ordinal(query.low), self._value_type.ordinal(query.high)
        )
        result = plain_search(self.build.dictionary, search)
        record_ids = attr_vect_search(self.build.attribute_vector, result)
        reconstructed = self._entry_blobs[self.build.attribute_vector[record_ids]]
        return len(reconstructed)

    def storage_bytes(self) -> int:
        dictionary = self.build.dictionary
        return dictionary.storage_bytes() + attribute_vector_bytes(
            len(self.build.attribute_vector), len(dictionary)
        )


class EncDbdbColumnEngine:
    """The full encrypted pipeline through the simulated enclave."""

    name = "EncDBDB"

    def __init__(
        self,
        values: Sequence[str],
        kind: EncryptedDictionaryKind,
        *,
        value_type: ValueType | None = None,
        bsmax: int = 10,
        rng: HmacDrbg | None = None,
        pae: Pae | None = None,
        table_name: str = "bench",
        column_name: str = "col",
        fastpath=None,
    ) -> None:
        rng = rng if rng is not None else HmacDrbg(b"encdbdb-engine")
        self._pae = pae if pae is not None else default_pae(rng=rng.fork("pae"))
        self._value_type = value_type or VarcharType(30)
        self._master_key = pae_gen(rng=rng.fork("skdb"))
        self._column_key = derive_column_key(self._master_key, table_name, column_name)

        attestation = AttestationService()
        # Figure 8 / Table 4 measure the published constant-memory algorithm
        # (no resident plaintext, one decryption per probe), so the default
        # is an explicit zero budget; the fast-path benchmark passes a size.
        enclave = EncDBDBEnclave(
            attestation=attestation,
            pae=self._pae,
            rng=rng.fork("enclave"),
            fastpath=(
                fastpath
                if fastpath is not None
                else FastPathConfig(dictionary_cache_bytes=0)
            ),
        )
        self.host = EnclaveHost(enclave)
        offer = self.host.ecall("channel_offer")
        channel, public = SecureChannel.connect(
            offer, attestation, self.host.measurement, rng=rng.fork("owner"),
            pae=self._pae,
        )
        self.host.ecall("channel_accept", public)
        self.host.ecall("provision_master_key", channel.send(self._master_key))

        self.build: BuildResult = encdb_build(
            list(values),
            kind,
            value_type=self._value_type,
            key=self._column_key,
            pae=self._pae,
            rng=rng.fork("build"),
            bsmax=bsmax,
            table_name=table_name,
            column_name=column_name,
        )

        self._entry_blobs = _materialize_entries(self.build)

    def run(self, query: RangeQuery) -> int:
        tau = encrypt_search_range(
            self._pae,
            self._column_key,
            OrdinalRange(
                self._value_type.ordinal(query.low),
                self._value_type.ordinal(query.high),
            ),
        )
        (result,) = self.host.ecall("dict_search", [(self.build.dictionary, tau)])
        record_ids = attr_vect_search(
            self.build.attribute_vector, result, cost_model=self.host.cost_model
        )
        reconstructed = self._entry_blobs[self.build.attribute_vector[record_ids]]
        return len(reconstructed)

    def storage_bytes(self) -> int:
        dictionary = self.build.dictionary
        return dictionary.storage_bytes() + attribute_vector_bytes(
            len(self.build.attribute_vector), len(dictionary)
        )


def build_engines(
    values: Sequence[str],
    kind: EncryptedDictionaryKind,
    *,
    bsmax: int = 10,
    value_type: ValueType | None = None,
    seed: bytes = b"bench-engines",
):
    """Construct all three engines over the same column."""
    rng = HmacDrbg(seed)
    return {
        "MonetDB": MonetDbColumnEngine(values),
        "PlainDBDB": PlainDbdbColumnEngine(
            values, kind, value_type=value_type, bsmax=bsmax, rng=rng.fork("plain")
        ),
        "EncDBDB": EncDbdbColumnEngine(
            values, kind, value_type=value_type, bsmax=bsmax, rng=rng.fork("enc")
        ),
    }
