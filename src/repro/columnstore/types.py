"""Column data types.

The paper's ``ENCODE`` trick (Algorithm 3) requires every column to have a
fixed maximal length fixing a finite, ordered value domain — implicitly for
``INTEGER`` (32 bit) and explicitly for ``VARCHAR(n)`` (paper §4.1, ED2).
A :class:`ValueType` therefore provides, besides serialization, an
*order-preserving ordinal embedding* of its domain into ``[0, domain_size)``;
:mod:`repro.encdict.search` builds the rotated dictionary search on top of
it.

A :class:`ColumnSpec` pairs a value type with the column's protection: either
plaintext or one of the nine encrypted dictionaries (and ``bsmax`` for the
frequency-smoothing ones).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import CatalogError


class ValueType(ABC):
    """An ordered, finite column domain with byte serialization."""

    #: SQL spelling, e.g. ``VARCHAR(30)`` or ``INTEGER``.
    sql_name: str

    def coerce(self, literal: Any) -> Any:
        """Convert a SQL literal to a domain value, if a conversion exists.

        The SQL layer only produces ``int`` and ``str`` literals; types whose
        Python representation differs (e.g. DATE) override this to parse the
        literal. The default is the identity.
        """
        return literal

    @property
    @abstractmethod
    def domain_size(self) -> int:
        """Number of representable values (the modulus ``N`` of Algorithm 3)."""

    @abstractmethod
    def validate(self, value: Any) -> None:
        """Raise :class:`CatalogError` if ``value`` is outside the domain."""

    @abstractmethod
    def to_bytes(self, value: Any) -> bytes:
        """Serialize a value for encryption/persistence."""

    @abstractmethod
    def from_bytes(self, data: bytes) -> Any:
        """Inverse of :meth:`to_bytes`."""

    @abstractmethod
    def ordinal(self, value: Any) -> int:
        """Order-preserving embedding into ``[0, domain_size)``.

        ``a < b  <=>  ordinal(a) < ordinal(b)`` for all domain values; this
        is the paper's ``ENCODE`` function.
        """

    @property
    def min_value(self) -> Any:
        """Smallest domain value (the ``-inf`` placeholder of §4.2)."""
        return self.from_ordinal(0)

    @property
    def max_value(self) -> Any:
        """Largest domain value (``+inf`` placeholder / 'column maximum')."""
        return self.from_ordinal(self.domain_size - 1)

    @abstractmethod
    def from_ordinal(self, ordinal: int) -> Any:
        """Inverse of :meth:`ordinal` (used for the domain extrema)."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.sql_name == getattr(
            other, "sql_name", None
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sql_name))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sql_name})"


class IntegerType(ValueType):
    """Signed 32-bit integers (the paper's MySQL-style INTEGER example)."""

    INT_MIN = -(2**31)
    INT_MAX = 2**31 - 1

    def __init__(self) -> None:
        self.sql_name = "INTEGER"

    @property
    def domain_size(self) -> int:
        return 2**32

    def validate(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CatalogError(f"INTEGER column cannot store {value!r}")
        if not self.INT_MIN <= value <= self.INT_MAX:
            raise CatalogError(f"{value} outside the 32-bit INTEGER range")

    def to_bytes(self, value: int) -> bytes:
        self.validate(value)
        return (value - self.INT_MIN).to_bytes(4, "big")

    def from_bytes(self, data: bytes) -> int:
        if len(data) != 4:
            raise CatalogError(f"INTEGER payload must be 4 bytes, got {len(data)}")
        return int.from_bytes(data, "big") + self.INT_MIN

    def ordinal(self, value: int) -> int:
        self.validate(value)
        return value - self.INT_MIN

    def from_ordinal(self, ordinal: int) -> int:
        return ordinal + self.INT_MIN


class VarcharType(ValueType):
    """``VARCHAR(n)``: byte strings of length <= n.

    Values are compared lexicographically on their UTF-8 bytes, matching how
    the reproduction's dictionaries sort them. The ordinal embedding right-
    pads with zero bytes (the paper's ``ENCODE``), so NUL bytes inside values
    are rejected to keep the embedding order-preserving.
    """

    def __init__(self, max_length: int) -> None:
        if max_length <= 0:
            raise CatalogError("VARCHAR length must be positive")
        self.max_length = max_length
        self.sql_name = f"VARCHAR({max_length})"

    @property
    def domain_size(self) -> int:
        return 256**self.max_length

    @staticmethod
    def _encode(value: str) -> bytes:
        # surrogateescape keeps the byte<->str mapping bijective so the
        # domain extrema produced by from_ordinal() stay representable.
        return value.encode("utf-8", errors="surrogateescape")

    def validate(self, value: Any) -> None:
        if not isinstance(value, str):
            raise CatalogError(f"VARCHAR column cannot store {value!r}")
        encoded = self._encode(value)
        if len(encoded) > self.max_length:
            raise CatalogError(
                f"value of {len(encoded)} bytes exceeds {self.sql_name}"
            )
        if b"\x00" in encoded:
            raise CatalogError("VARCHAR values must not contain NUL bytes")

    def to_bytes(self, value: str) -> bytes:
        self.validate(value)
        return self._encode(value)

    def from_bytes(self, data: bytes) -> str:
        return data.decode("utf-8", errors="surrogateescape")

    def ordinal(self, value: str) -> int:
        self.validate(value)
        encoded = self._encode(value)
        padded = encoded + b"\x00" * (self.max_length - len(encoded))
        return int.from_bytes(padded, "big")

    def from_ordinal(self, ordinal: int) -> str:
        padded = ordinal.to_bytes(self.max_length, "big")
        return padded.rstrip(b"\x00").decode("utf-8", errors="surrogateescape")

    def prefix_ordinal_range(self, prefix: str) -> tuple[int, int]:
        """The closed ordinal interval of all values starting with ``prefix``.

        Because the ordinal embedding is byte-lexicographic with zero
        padding, the strings with a given prefix occupy exactly
        ``[ordinal(prefix), ordinal(prefix || 0xFF...)]`` — which is how a
        LIKE-prefix filter becomes an ordinary (encrypted) range query.
        """
        self.validate(prefix)
        encoded = self._encode(prefix)
        low = self.ordinal(prefix)
        high_bytes = encoded + b"\xff" * (self.max_length - len(encoded))
        return low, int.from_bytes(high_bytes, "big")


class DateType(ValueType):
    """Calendar dates (proleptic Gregorian, year 1 to 9999).

    Values are :class:`datetime.date`; SQL literals are ISO strings
    (``'2026-07-05'``) coerced by :meth:`coerce`. The ordinal embedding is
    the day number, so date ranges work on every encrypted dictionary just
    like integers — the typical time-dimension filter of a warehouse query.
    """

    def __init__(self) -> None:
        self.sql_name = "DATE"

    @property
    def domain_size(self) -> int:
        import datetime

        return datetime.date.max.toordinal()  # 3652059 days

    def coerce(self, literal: Any) -> Any:
        import datetime

        if isinstance(literal, str):
            try:
                return datetime.date.fromisoformat(literal)
            except ValueError:
                raise CatalogError(
                    f"{literal!r} is not an ISO date (YYYY-MM-DD)"
                ) from None
        return literal

    def validate(self, value: Any) -> None:
        import datetime

        if not isinstance(value, datetime.date) or isinstance(
            value, datetime.datetime
        ):
            raise CatalogError(f"DATE column cannot store {value!r}")

    def to_bytes(self, value: Any) -> bytes:
        self.validate(value)
        return self.ordinal(value).to_bytes(4, "big")

    def from_bytes(self, data: bytes) -> Any:
        if len(data) != 4:
            raise CatalogError(f"DATE payload must be 4 bytes, got {len(data)}")
        return self.from_ordinal(int.from_bytes(data, "big"))

    def ordinal(self, value: Any) -> int:
        self.validate(value)
        return value.toordinal() - 1  # day numbers start at 1

    def from_ordinal(self, ordinal: int) -> Any:
        import datetime

        return datetime.date.fromordinal(ordinal + 1)


def parse_type(sql_name: str) -> ValueType:
    """Parse a SQL type spelling into a :class:`ValueType`."""
    text = sql_name.strip().upper()
    if text in ("INTEGER", "INT"):
        return IntegerType()
    if text == "DATE":
        return DateType()
    if text.startswith("VARCHAR(") and text.endswith(")"):
        inner = text[len("VARCHAR(") : -1]
        try:
            return VarcharType(int(inner))
        except ValueError:
            raise CatalogError(f"bad VARCHAR length {inner!r}") from None
    raise CatalogError(f"unsupported column type {sql_name!r}")


@dataclass(frozen=True)
class ColumnSpec:
    """Schema entry for one column: name, domain, and protection.

    ``protection`` is ``None`` for a plaintext dictionary or an
    :class:`~repro.encdict.options.EncryptedDictionaryKind`; ``bsmax`` is the
    frequency-smoothing bucket bound (ignored by non-smoothing kinds).
    """

    name: str
    value_type: ValueType
    protection: Any = None  # EncryptedDictionaryKind | None (avoids a cycle)
    bsmax: int = 10
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name {self.name!r}")
        if self.bsmax < 1:
            raise CatalogError("bsmax must be >= 1")

    @property
    def is_encrypted(self) -> bool:
        return self.protection is not None

    def adopt_protection(self, kind: Any, key_epoch: int) -> None:
        """Rebind this spec to a rotated protection (``repro.migrate``).

        The one sanctioned in-place mutation of a (frozen) spec: the
        finalize step of an online rotation swaps the ED kind and storage
        key epoch on the *shared* spec object, so table schema and column
        agree atomically. Everything else must treat specs as immutable.
        """
        object.__setattr__(self, "protection", kind)
        self.metadata["key_epoch"] = key_epoch
