"""End-to-end tests of the EncDBDB enclave program.

Covers the full paper §4.2 flow: attestation-gated provisioning of SKDB,
one-ecall-per-query dictionary searches, sealing, and the dynamic-data
ecalls of §4.3 — plus the access-pattern and constant-memory properties the
design argues for.
"""

from __future__ import annotations

import pytest

from repro.columnstore.partition import DELTA_PARTITION_ID
from repro.columnstore.types import IntegerType, VarcharType
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import derive_column_key
from repro.crypto.pae import default_pae, pae_gen
from repro.encdict.attrvect import attr_vect_search
from repro.encdict.builder import encdb_build
from repro.encdict.enclave_app import EncDBDBEnclave, encrypt_search_range
from repro.encdict.options import ALL_KINDS, ED1, ED2, ED9
from repro.encdict.search import DictionaryAccessor, OrdinalRange
from repro.exceptions import (
    AttestationError,
    AuthenticationError,
    EnclaveSecurityError,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.channel import SecureChannel
from repro.sgx.enclave import EnclaveHost

from tests.encdict.conftest import reference_range_search


def _provisioned_host(seed=b"enclave-e2e"):
    """Run the full §4.2 setup and return (host, master_key, pae, rng)."""
    rng = HmacDrbg(seed)
    service = AttestationService()
    pae = default_pae(rng=rng.fork("client-pae"))
    enclave = EncDBDBEnclave(
        attestation=service, pae=default_pae(rng=rng.fork("enclave-pae")),
        rng=rng.fork("enclave"),
    )
    host = EnclaveHost(enclave)
    master_key = pae_gen(rng=rng.fork("skdb"))

    offer = host.ecall("channel_offer")
    channel, client_public = SecureChannel.connect(
        offer, service, host.measurement, rng=rng.fork("owner"), pae=pae
    )
    host.ecall("channel_accept", client_public)
    host.ecall("provision_master_key", channel.send(master_key))
    return host, master_key, pae, rng


def _build(master_key, pae, rng, values, kind, value_type=None, bsmax=3):
    value_type = value_type or VarcharType(20)
    key = derive_column_key(master_key, "t1", "c1")
    return encdb_build(
        values,
        kind,
        value_type=value_type,
        key=key,
        pae=pae,
        rng=rng.fork(f"b-{kind.name}"),
        bsmax=bsmax,
        table_name="t1",
        column_name="c1",
    )


def _tau(master_key, pae, value_type, low, high):
    key = derive_column_key(master_key, "t1", "c1")
    return encrypt_search_range(
        pae, key, OrdinalRange(value_type.ordinal(low), value_type.ordinal(high))
    )


def test_full_query_flow_every_kind():
    host, master_key, pae, rng = _provisioned_host()
    values = ["b", "a", "c", "b", "e", "d", "b"]
    for kind in ALL_KINDS:
        build = _build(master_key, pae, rng, values, kind)
        tau = _tau(master_key, pae, build.dictionary.value_type, "b", "d")
        result = host.ecall("dict_search", build.dictionary, tau)
        records = sorted(attr_vect_search(build.attribute_vector, result).tolist())
        assert records == reference_range_search(values, "b", "d"), kind.name


def test_search_without_provisioning_rejected():
    rng = HmacDrbg(b"no-provision")
    enclave = EncDBDBEnclave(rng=rng.fork("enclave"))
    host = EnclaveHost(enclave)
    pae = default_pae(rng=rng.fork("pae"))
    master_key = pae_gen(rng=rng.fork("skdb"))
    build = _build(master_key, pae, rng, ["a", "b"], ED1)
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "b")
    with pytest.raises(EnclaveSecurityError):
        host.ecall("dict_search", build.dictionary, tau)


def test_provisioning_requires_channel():
    enclave = EncDBDBEnclave(rng=HmacDrbg(b"x"))
    host = EnclaveHost(enclave)
    with pytest.raises(EnclaveSecurityError):
        host.ecall("provision_master_key", b"blob")
    with pytest.raises(EnclaveSecurityError):
        host.ecall("channel_accept", 1234)


def test_owner_rejects_imposter_enclave():
    """Connecting against a different measurement fails attestation."""
    rng = HmacDrbg(b"imposter")
    service = AttestationService()
    enclave = EncDBDBEnclave(attestation=service, rng=rng.fork("e"))
    host = EnclaveHost(enclave)
    offer = host.ecall("channel_offer")
    with pytest.raises(AttestationError):
        SecureChannel.connect(
            offer, service, b"\x00" * 32, rng=rng.fork("owner")
        )


def test_seal_and_restore_master_key():
    host, master_key, pae, rng = _provisioned_host()
    sealed = host.ecall("seal_master_key")

    # A fresh enclave instance of the same class restores from the blob.
    service = AttestationService()
    fresh = EncDBDBEnclave(
        attestation=service, pae=default_pae(rng=rng.fork("p2")),
        rng=rng.fork("fresh"),
    )
    fresh_host = EnclaveHost(fresh)
    fresh_host.ecall("restore_master_key", sealed)

    values = [5, 1, 3, 5]
    build = _build(master_key, pae, rng, values, ED1, value_type=IntegerType())
    tau = _tau(master_key, pae, IntegerType(), 2, 5)
    result = fresh_host.ecall("dict_search", build.dictionary, tau)
    records = sorted(attr_vect_search(build.attribute_vector, result).tolist())
    assert records == reference_range_search(values, 2, 5)


def test_one_ecall_per_query():
    """Paper §5: one context switch per query."""
    host, master_key, pae, rng = _provisioned_host()
    build = _build(master_key, pae, rng, ["a", "b", "c"] * 10, ED2)
    before = host.cost_model.ecalls
    tau = _tau(master_key, pae, build.dictionary.value_type, "a", "b")
    host.ecall("dict_search", build.dictionary, tau)
    assert host.cost_model.ecalls == before + 1


def test_logarithmic_vs_linear_decryptions():
    """Table 4: sorted/rotated kinds decrypt O(log|D|) entries, unsorted |D|."""
    host, master_key, pae, rng = _provisioned_host()
    values = [f"v{i:04d}" for i in range(512)]
    tau_args = ("v0100", "v0200")

    counts = {}
    for kind in (ALL_KINDS[0], ALL_KINDS[1], ALL_KINDS[2]):  # ED1, ED2, ED3
        build = _build(master_key, pae, rng, values, kind)
        tau = _tau(master_key, pae, build.dictionary.value_type, *tau_args)
        before = host.cost_model.snapshot()
        host.ecall("dict_search", build.dictionary, tau)
        counts[kind.name] = host.cost_model.diff(before)["decryptions"]

    assert counts["ED3"] == 512 + 2  # every entry + the two range bounds
    assert counts["ED1"] <= 2 * 10 + 2 + 2  # two binary searches over 2^9
    assert counts["ED2"] <= 3 * 10 + 6  # + reference probe and corner checks


def test_constant_enclave_memory():
    """Enclave EPC use does not grow with |D| (paper §5, Table 6 note)."""
    host, master_key, pae, rng = _provisioned_host()
    small = _build(master_key, pae, rng, ["a", "b"], ED1)
    large = _build(master_key, pae, rng, [f"v{i}" for i in range(2000)], ED1)
    for build in (small, large):
        tau = _tau(master_key, pae, build.dictionary.value_type, "a", "zz")
        host.ecall("dict_search", build.dictionary, tau)
    # The enclave never allocates EPC pages for dictionary data.
    assert host._enclave.epc.allocated_pages == 0


_RESEAL_VALUES = [b"new-row-value", b"b", b"a-longer-third-value"]


def test_reseal_delta_changes_ciphertext_not_plaintext():
    """An INSERT's crossing: fresh ciphertext, same values, count, order
    and blob sizes."""
    host, master_key, pae, rng = _provisioned_host()
    key = derive_column_key(master_key, "t1", "c1")
    transit = [pae.encrypt(key, value) for value in _RESEAL_VALUES]
    stored = host.ecall("reseal_delta", "t1", "c1", transit)
    assert set(stored).isdisjoint(transit)
    assert [pae.decrypt(key, blob) for blob in stored] == _RESEAL_VALUES
    assert [len(blob) for blob in stored] == [len(blob) for blob in transit]
    assert host.ecall("reseal_delta", "t1", "c1", []) == []


def test_reseal_delta_seals_under_to_epoch():
    host, master_key, pae, rng = _provisioned_host()
    transit_key = derive_column_key(master_key, "t1", "c1")
    epoch_key = derive_column_key(master_key, "t1", "c1", 2)
    transit = [pae.encrypt(transit_key, value) for value in _RESEAL_VALUES]
    stored = host.ecall("reseal_delta", "t1", "c1", transit, to_epoch=2)
    assert [pae.decrypt(epoch_key, blob) for blob in stored] == _RESEAL_VALUES
    with pytest.raises(AuthenticationError):
        pae.decrypt(transit_key, stored[0])
    # The flip's rollback direction: back from the storage epoch.
    back = host.ecall("reseal_delta", "t1", "c1", stored, from_epoch=2)
    assert [pae.decrypt(transit_key, blob) for blob in back] == _RESEAL_VALUES


def test_reseal_delta_bumps_only_the_delta_partition_epoch():
    host, master_key, pae, rng = _provisioned_host()
    key = derive_column_key(master_key, "t1", "c1")
    enclave = host._enclave
    host.ecall("reseal_delta", "t1", "c1", [pae.encrypt(key, b"v")] * 3)
    assert enclave._epoch("t1", "c1", DELTA_PARTITION_ID) == 1
    assert enclave._epoch("t1", "c1", 0) == 0
    assert enclave._epoch("t1", "c2", DELTA_PARTITION_ID) == 0


def test_reseal_delta_rejects_the_whole_list_on_one_bad_tag():
    host, master_key, pae, rng = _provisioned_host()
    key = derive_column_key(master_key, "t1", "c1")
    transit = [pae.encrypt(key, value) for value in _RESEAL_VALUES]
    transit[1] = bytes(len(transit[1]))
    with pytest.raises(AuthenticationError):
        host.ecall("reseal_delta", "t1", "c1", transit)


def test_rebuild_for_merge_produces_searchable_store():
    host, master_key, pae, rng = _provisioned_host()
    vt = VarcharType(20)
    merged_values = ["x", "m", "a", "m", "z"]
    stored = _build(master_key, pae, rng, merged_values, ED1)
    build = host.ecall(
        "rebuild_for_merge",
        "t1",
        "c1",
        ED2,
        vt,
        [(stored.dictionary, stored.attribute_vector)],
    )
    tau = _tau(master_key, pae, vt, "a", "m")
    result = host.ecall("dict_search", build.dictionary, tau)
    records = sorted(attr_vect_search(build.attribute_vector, result).tolist())
    assert records == reference_range_search(merged_values, "a", "m")


def test_rebuild_for_merge_unlinkable():
    """Merged ciphertexts share no blob with the inputs (fresh IVs)."""
    host, master_key, pae, rng = _provisioned_host()
    vt = VarcharType(20)
    stored = _build(master_key, pae, rng, ["a", "b", "a"], ED9)
    build = host.ecall(
        "rebuild_for_merge",
        "t1",
        "c1",
        ED9,
        vt,
        [(stored.dictionary, stored.attribute_vector)],
    )
    new_blobs = {bytes(b) for b in build.dictionary.entries()}
    assert new_blobs.isdisjoint({bytes(b) for b in stored.dictionary.entries()})


@pytest.mark.parametrize(
    "foreign",
    [("t1", "c2", 0), ("t2", "c1", 0), ("t1", "c1", 1)],
    ids=["other-column", "other-table", "other-epoch"],
)
def test_rebuild_for_merge_refuses_a_store_of_another_column(foreign):
    """A merge must not launder column B's stored values into authentic
    ciphertext of column A: every store handed to ``rebuild_for_merge`` has
    to belong to the rebuilt column under the epoch it is sealed with."""
    host, master_key, pae, rng = _provisioned_host()
    own = _build(master_key, pae, rng, ["a", "b"], ED9)
    table, column, epoch = foreign
    other = encdb_build(
        ["secret"],
        ED9,
        value_type=VarcharType(20),
        key=derive_column_key(master_key, table, column, key_epoch=epoch),
        pae=pae,
        rng=rng.fork("foreign"),
        table_name=table,
        column_name=column,
    )
    other.dictionary.key_epoch = epoch
    with pytest.raises(EnclaveSecurityError, match="merge store"):
        host.ecall(
            "rebuild_for_merge",
            "t1",
            "c1",
            ED9,
            VarcharType(20),
            [
                (own.dictionary, own.attribute_vector),
                (other.dictionary, other.attribute_vector),
            ],
        )


@pytest.mark.parametrize("ecall", ["rebuild_for_merge", "rotate_partition"])
@pytest.mark.parametrize("past", ["below", "above"])
def test_stored_entry_opener_rejects_out_of_range_value_ids(ecall, past):
    """A host-supplied ValueID outside ``[0, |D|)`` raises; -1 must not wrap
    around to the last entry (nor |D| to anything)."""
    host, master_key, pae, rng = _provisioned_host()
    stored = _build(master_key, pae, rng, ["a", "b", "c", "d"], ED9)
    vids = stored.attribute_vector.copy()
    vids[1] = -1 if past == "below" else len(stored.dictionary)
    with pytest.raises(IndexError, match="dictionary index"):
        if ecall == "rebuild_for_merge":
            host.ecall(
                "rebuild_for_merge",
                "t1",
                "c1",
                ED9,
                VarcharType(20),
                [(stored.dictionary, vids)],
            )
        else:
            host.ecall("rotate_partition", stored.dictionary, vids, new_kind=ED1)


# ----------------------------------------------------------------------
# Access-pattern properties of the rotated search (Algorithm 3)
# ----------------------------------------------------------------------


def _probe_sequence_for_offset(values, low, high, wanted_offset):
    """Build ED2 with a specific offset and record the probe positions."""
    from tests.encdict.conftest import EdHarness

    harness = EdHarness(seed=b"probes")
    for attempt in range(500):
        harness.rng = harness.rng.fork(f"probe-{attempt}")
        build = harness.build(values, ED2)
        if build.stats.rnd_offset != wanted_offset:
            continue
        vt = build.dictionary.value_type
        accessor = DictionaryAccessor(
            build.dictionary, key=harness.key, pae=harness.pae
        )
        from repro.encdict.search import search_rotated

        search_rotated(
            accessor, OrdinalRange(vt.ordinal(low), vt.ordinal(high))
        )
        return accessor.probes
    raise AssertionError(f"offset {wanted_offset} never drawn")


def test_rotated_first_probes_independent_of_offset():
    """The special binary search always starts probing at the same positions
    (index 0 for the reference, the last index for the wrap check, then the
    standard midpoints), so the first access does not reveal rndOffset —
    the design goal of Algorithm 3."""
    values = ["a", "b", "c", "d", "e", "f", "g", "h"]
    sequences = [
        _probe_sequence_for_offset(values, "c", "f", offset)
        for offset in range(len(values))
    ]
    first_three = {tuple(seq[:3]) for seq in sequences}
    assert len(first_three) == 1, first_three
    # Every probe sequence starts with the rndOffset-independent prefix.
    assert all(seq[0] == 0 and seq[1] == len(values) - 1 for seq in sequences)
