"""The EncDBDB wire protocol: versioned, length-prefixed, typed frames.

One frame is::

    magic(4) | version(1) | frame type(1) | payload length(4, big endian) | payload

The six frame types mirror the deployment protocol of paper §4.2: ``HELLO``
(capability exchange, enclave measurement), ``ATTEST`` (quote offer and DH
handshake), ``PROVISION`` (the PAE-wrapped ``SKDB`` push), ``QUERY`` (one
server RPC: an encrypted plan or a catalog call), ``RESULT`` (its return
value) and ``ERROR`` (a redacted, typed failure).

Payloads are encoded with a small tagged binary codec instead of pickle: the
decoder only reconstructs *registered* dataclasses field-by-field, so a
malicious peer can neither execute code on decode nor smuggle unexpected
object graphs. Registered types are exactly what the EncDBDB topology ships
between trusted proxy and untrusted server — query plans with encrypted
range bounds, rendered result columns, encrypted dictionary builds, quotes.
Everything else is rejected with :class:`~repro.exceptions.ProtocolError`.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Callable

import numpy as np

from repro.columnstore.types import ColumnSpec, parse_type, ValueType
from repro.encdict.builder import BuildResult, BuildStats
from repro.encdict.dictionary import EncryptedDictionary
from repro.encdict.options import EncryptedDictionaryKind, kind_by_name
from repro.exceptions import ProtocolError
from repro.sgx.attestation import Quote
from repro.sgx.channel import ChannelOffer
from repro.sql.ast_nodes import Aggregate, OrderItem
from repro.sql.planner import (
    CreatePlan,
    DeletePlan,
    EncryptedRangeFilter,
    FilterNode,
    JoinSelectPlan,
    MergePlan,
    PostProcessing,
    PrefixFilter,
    RangeFilter,
    SelectPlan,
)
from repro.migrate.plan import MigrationStatus
from repro.sql.result import (
    AggregateFrames,
    PushdownSelectResult,
    ResultColumn,
    RoutingDecision,
    ServerResult,
)

PROTOCOL_VERSION = 2
MAGIC = b"EDBN"
HEADER = struct.Struct(">4sBBI")

#: Upper bound on one frame's payload; a peer announcing more is cut off
#: before any allocation happens (flood/DoS hygiene, not secrecy).
MAX_FRAME_BYTES = 128 * 1024 * 1024

_MAX_DEPTH = 64


class FrameType(enum.IntEnum):
    HELLO = 1
    ATTEST = 2
    PROVISION = 3
    QUERY = 4
    RESULT = 5
    ERROR = 6


# ----------------------------------------------------------------------
# Tagged value codec
# ----------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_NDARRAY = 0x0A
_T_OBJECT = 0x0B


class _Registered:
    """Codec entry for one wire-visible class."""

    def __init__(
        self,
        cls: type,
        fields: tuple[str, ...],
        *,
        encode: Callable[[Any], dict] | None = None,
        decode: Callable[[dict], Any] | None = None,
    ) -> None:
        self.cls = cls
        self.fields = fields
        self.encode = encode if encode is not None else (
            lambda obj: {name: getattr(obj, name) for name in fields}
        )
        self.decode = decode if decode is not None else (
            lambda values: cls(**values)
        )


_BY_NAME: dict[str, _Registered] = {}
_BY_TYPE: dict[type, str] = {}


def _register(
    cls: type,
    fields: tuple[str, ...],
    *,
    name: str | None = None,
    encode: Callable[[Any], dict] | None = None,
    decode: Callable[[dict], Any] | None = None,
) -> None:
    wire_name = name if name is not None else cls.__name__
    _BY_NAME[wire_name] = _Registered(cls, fields, encode=encode, decode=decode)
    _BY_TYPE[cls] = wire_name


# Attestation / secure channel ------------------------------------------------
_register(
    Quote,
    ("wire",),
    encode=lambda quote: {"wire": quote.to_wire()},
    decode=lambda values: Quote.from_wire(values["wire"]),
)
_register(ChannelOffer, ("quote",))

# Schema ----------------------------------------------------------------------
_register(
    ColumnSpec,
    ("name", "value_type", "protection", "bsmax"),
    encode=lambda spec: {
        "name": spec.name,
        "value_type": spec.value_type,
        "protection": spec.protection,
        "bsmax": spec.bsmax,
    },
)
_register(
    EncryptedDictionaryKind,
    ("name",),
    name="EDKind",
    encode=lambda kind: {"name": kind.name},
    decode=lambda values: kind_by_name(values["name"]),
)

# Query plans (what the proxy ships after encrypting every filter bound) ------
_register(RangeFilter, ("column", "low", "low_inclusive", "high", "high_inclusive", "negated"))
_register(EncryptedRangeFilter, ("column", "tau", "negated"))
_register(PrefixFilter, ("column", "prefix", "negated"))
_register(FilterNode, ("operator", "children"))
_register(Aggregate, ("function", "column"))
_register(OrderItem, ("column", "descending"))
_register(PostProcessing, ("items", "group_by", "order_by", "limit", "distinct"))
_register(SelectPlan, ("table", "needed_columns", "filter", "post"))
_register(
    JoinSelectPlan,
    (
        "left_table",
        "right_table",
        "left_column",
        "right_column",
        "left_needed",
        "right_needed",
        "left_filter",
        "right_filter",
        "post",
    ),
)
_register(DeletePlan, ("table", "filter"))
_register(CreatePlan, ("table", "specs"))
_register(MergePlan, ("table",))

# Results (ciphertext columns + metadata, paper §4.2 step 13) -----------------
# ``key_epoch`` rides along so the proxy can derive the storage-epoch column
# key after an online key rotation (repro.migrate) finalizes. An encrypted
# column ships its distinct referenced entries in ``data`` plus the per-row
# ``index`` into them (protocol version 2; version 1 shipped one blob per
# row, so a version-1 peer is refused at HELLO rather than misread).
_register(
    ResultColumn,
    ("table_name", "column_name", "encrypted", "data", "key_epoch", "index"),
)
_register(ServerResult, ("table_name", "record_ids", "columns"))

# Analytics pushdown (PR 9): routing decisions are public plan metadata;
# aggregate results travel as padded, PAE-encrypted group frames — the
# server (and hence the wire) sees uniform ciphertext blobs only.
_register(RoutingDecision, ("clause", "pushed", "reason"))
_register(AggregateFrames, ("table_name", "group_column", "labels", "frames"))
_register(PushdownSelectResult, ("decisions", "aggregate", "rows", "ordered"))

# Online rotation progress (repro.migrate): typed frames for the ``migrate``
# wire verbs — public kinds/epochs/phase metadata only, never ciphertext.
_register(
    MigrationStatus,
    (
        "migration_id",
        "table",
        "column",
        "old_kind",
        "new_kind",
        "old_key_epoch",
        "new_key_epoch",
        "state",
        "phase",
        "steps_total",
        "steps_done",
        "partition_versions",
        "error",
    ),
)

# Encrypted builds (the data owner's EncDB output for bulk import) ------------
# ``partition_id`` is deliberately NOT registered: partition metadata is
# server-side bookkeeping (assigned on install, persisted locally) and must
# never cross the wire. The encoder emits registered fields only and the
# decoder rejects unknown field names, so the omission is structural — a
# dictionary always decodes with the dataclass default of 0.
_register(
    EncryptedDictionary,
    (
        "kind",
        "value_type",
        "table_name",
        "column_name",
        "offsets",
        "tail",
        "enc_rnd_offset",
        "encrypted",
    ),
)
_register(
    BuildStats,
    ("kind", "column_length", "unique_values", "dictionary_entries", "bsmax", "rnd_offset"),
)
_register(BuildResult, ("dictionary", "attribute_vector", "stats"))


# Value types are matched by isinstance (IntegerType/VarcharType/DateType all
# reduce to their SQL spelling) rather than exact type, hence the manual entry.
_BY_NAME["ValueType"] = _Registered(
    ValueType,
    ("sql",),
    encode=lambda vt: {"sql": vt.sql_name},
    decode=lambda values: parse_type(values["sql"]),
)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _write_u32(out: bytearray, value: int) -> None:
    out += struct.pack(">I", value)


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_u32(out, len(raw))
    out += raw


def _write_object(out: bytearray, wire_name: str, values: dict) -> None:
    out.append(_T_OBJECT)
    _write_str(out, wire_name)
    _write_u32(out, len(values))
    for field_name, value in values.items():
        _write_str(out, field_name)
        _encode(out, value)


def _encode(out: bytearray, obj: Any) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        # Arbitrary precision: DH public values are 2048-bit integers.
        magnitude = abs(obj)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(_T_INT)
        out.append(1 if obj < 0 else 0)
        _write_u32(out, len(raw))
        out += raw
    elif isinstance(obj, float):
        out.append(_T_FLOAT)
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        out.append(_T_STR)
        _write_str(out, obj)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(_T_BYTES)
        _write_u32(out, len(raw))
        out += raw
    elif isinstance(obj, list):
        out.append(_T_LIST)
        _write_u32(out, len(obj))
        for item in obj:
            _encode(out, item)
    elif isinstance(obj, tuple):
        out.append(_T_TUPLE)
        _write_u32(out, len(obj))
        for item in obj:
            _encode(out, item)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        _write_u32(out, len(obj))
        for key, value in obj.items():
            _encode(out, key)
            _encode(out, value)
    elif isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        if array.dtype.hasobject:
            raise ProtocolError("object-dtype arrays are not wire-encodable")
        out.append(_T_NDARRAY)
        _write_str(out, str(array.dtype))
        out.append(array.ndim)
        for dim in array.shape:
            _write_u32(out, dim)
        raw = array.tobytes()
        _write_u32(out, len(raw))
        out += raw
    elif isinstance(obj, (np.integer, np.bool_)):
        _encode(out, int(obj) if not isinstance(obj, np.bool_) else bool(obj))
    elif isinstance(obj, np.floating):
        _encode(out, float(obj))
    else:
        wire_name = _BY_TYPE.get(type(obj))
        if wire_name is None and isinstance(obj, ValueType):
            wire_name = "ValueType"
        if wire_name is None:
            raise ProtocolError(
                f"type {type(obj).__name__!r} is not registered for the wire"
            )
        entry = _BY_NAME[wire_name]
        _write_object(out, wire_name, entry.encode(obj))


def encode_payload(obj: Any) -> bytes:
    """Serialize one payload object to codec bytes."""
    out = bytearray()
    _encode(out, obj)
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Decoder:
    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        if n < 0 or self._pos + n > len(self._view):
            raise ProtocolError("truncated payload")
        chunk = self._view[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def _u8(self) -> int:
        return self._take(1)[0]

    def _u32(self) -> int:
        (value,) = struct.unpack(">I", self._take(4))
        return value

    def _count(self) -> int:
        """A collection count, sanity-bounded by the remaining bytes (every
        element costs at least its one tag byte)."""
        count = self._u32()
        if count > len(self._view) - self._pos:
            raise ProtocolError("collection count exceeds payload size")
        return count

    def _str(self) -> str:
        return bytes(self._take(self._u32())).decode("utf-8")

    def value(self, depth: int = 0) -> Any:
        if depth > _MAX_DEPTH:
            raise ProtocolError("payload nesting too deep")
        tag = self._u8()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            negative = self._u8()
            magnitude = int.from_bytes(self._take(self._u32()), "big")
            return -magnitude if negative else magnitude
        if tag == _T_FLOAT:
            (value,) = struct.unpack(">d", self._take(8))
            return value
        if tag == _T_STR:
            return self._str()
        if tag == _T_BYTES:
            return bytes(self._take(self._u32()))
        if tag == _T_LIST:
            return [self.value(depth + 1) for _ in range(self._count())]
        if tag == _T_TUPLE:
            return tuple(self.value(depth + 1) for _ in range(self._count()))
        if tag == _T_DICT:
            return {
                self.value(depth + 1): self.value(depth + 1)
                for _ in range(self._count())
            }
        if tag == _T_NDARRAY:
            try:
                dtype = np.dtype(self._str())
            except TypeError as exc:
                raise ProtocolError(f"bad array dtype: {exc}") from None
            if dtype.hasobject:
                raise ProtocolError("object-dtype arrays are not wire-decodable")
            ndim = self._u8()
            shape = tuple(self._u32() for _ in range(ndim))
            raw = bytes(self._take(self._u32()))
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if len(raw) != expected:
                raise ProtocolError("array byte length does not match its shape")
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if tag == _T_OBJECT:
            wire_name = self._str()
            entry = _BY_NAME.get(wire_name)
            if entry is None:
                raise ProtocolError(f"unregistered wire type {wire_name!r}")
            values = {}
            for _ in range(self._count()):
                field_name = self._str()
                if field_name not in entry.fields:
                    raise ProtocolError(
                        f"unexpected field {field_name!r} for wire type {wire_name!r}"
                    )
                values[field_name] = self.value(depth + 1)
            try:
                return entry.decode(values)
            except ProtocolError:
                raise
            except Exception as exc:
                raise ProtocolError(
                    f"cannot reconstruct wire type {wire_name!r}: {exc}"
                ) from None
        raise ProtocolError(f"unknown codec tag 0x{tag:02x}")

    def finished(self) -> bool:
        return self._pos == len(self._view)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`; rejects trailing garbage."""
    decoder = _Decoder(data)
    value = decoder.value()
    if not decoder.finished():
        raise ProtocolError("trailing bytes after payload")
    return value


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(frame_type: FrameType, payload: bytes) -> bytes:
    """Wrap encoded payload bytes in one wire frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, int(frame_type), len(payload)) + payload


def parse_header(header: bytes) -> tuple[FrameType, int]:
    """Validate a frame header; returns ``(frame_type, payload_length)``."""
    magic, version, raw_type, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError("bad frame magic: not an EncDBDB protocol peer")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    try:
        frame_type = FrameType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown frame type {raw_type}") from None
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return frame_type, length


def read_frame(read_exact: Callable[[int], bytes]) -> tuple[FrameType, bytes]:
    """Read one frame through a blocking ``read_exact(n)`` callable."""
    frame_type, length = parse_header(read_exact(HEADER.size))
    return frame_type, read_exact(length) if length else b""


async def read_frame_async(reader) -> tuple[FrameType, bytes]:
    """Read one frame from an :class:`asyncio.StreamReader`."""
    frame_type, length = parse_header(await reader.readexactly(HEADER.size))
    payload = await reader.readexactly(length) if length else b""
    return frame_type, payload
