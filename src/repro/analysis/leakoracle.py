"""Runtime leakage oracle — dynamic half of the leakage-contract checker.

The static pass (:mod:`repro.analysis.leakage`) proves each response site
*references* its declared shaping helper; this module observes what the
provider actually sees while tests run and (a) checks the eager shaping
invariants on every event, (b) records the full provider-observable trace
so paired-dataset tests can assert trace equivalence per ED kind.

What the provider observes (DESIGN.md §15): the **ecall sequence** with
argument/return *shapes* (byte sizes, element counts, nesting — never
content), and every **wire frame** (type + payload byte size). Two runs
over datasets that differ only in protected values must produce
byte-size-identical traces wherever the chosen ED kind promises to hide
the difference; a weaker kind's *declared* leakage is the only permitted
divergence.

Instrumented choke points:

- :meth:`repro.sgx.enclave.Enclave._dispatch` — every ecall of every
  enclave instance funnels through it (the boundary lock and cost
  accounting already rely on this), so wrapping it observes exactly what
  crosses the boundary.
- :func:`repro.net.protocol.encode_frame` — every outbound frame of both
  the server and the client. ``net.server`` / ``net.client`` import it by
  name, so the wrapper is installed (and restored) on all three modules.

Eager invariants checked as events arrive, mirroring the contracts in
:data:`~repro.analysis.leakage.ECALL_CONTRACTS`:

- ``dict_search`` results carrying ordinal ranges have **exactly two**
  (real ranges padded with ``DUMMY_RANGE``) — the count never encodes how
  many runs matched;
- ``aggregate_groups`` returns a **power-of-two** count of
  **uniform-size** frames;
- ``reseal_delta`` returns blobs with byte-for-byte the **same size
  vector** as its input — for an INSERT's crossing as for a key flip;
- every ``ERROR`` frame decodes to a registered wire-safe kind whose
  message survives :func:`repro.net.errors.scrub_message` unchanged and
  carries no traceback text.

Wire-up: ``ENCDBDB_LEAK_CHECK=1 python -m pytest ...`` installs a
session-scoped oracle (see ``tests/conftest.py``) and asserts a clean
report at teardown; :func:`capture_trace` scopes trace collection to one
``with`` block for the equivalence harness.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Live oracles, newest last. ``capture_trace`` reuses the installed
#: session oracle when there is one so `_dispatch` is not double-wrapped.
_ACTIVE: list["LeakOracle"] = []
_ACTIVE_LOCK = threading.Lock()


#: Recursion budget for :func:`observable_shape`. Ecall arguments carry
#: dictionary references whose object graphs are deep (and, through the
#: enclave's protected store, cyclic); a size/count observer sees at most
#: this many nesting levels before the shape collapses to a type marker.
_SHAPE_MAX_DEPTH = 8


def observable_shape(value: Any, _depth: int = 0, _seen: set[int] | None = None) -> Any:
    """The provider-observable *shape* of a value — sizes and counts only.

    Content never appears in the result: bytes and strings collapse to
    their lengths, scalars to type markers, containers to their element
    shapes. Equal shapes == indistinguishable to a size/count observer.
    """
    if value is None:
        return None
    if isinstance(value, (bytes, bytearray, memoryview)):
        return ("bytes", len(value))
    if isinstance(value, str):
        return ("str", len(value))
    if isinstance(value, bool):
        return ("bool",)
    if isinstance(value, int):
        return ("int",)
    if isinstance(value, float):
        return ("float",)
    if _depth >= _SHAPE_MAX_DEPTH:
        return (type(value).__name__, "...")
    if _seen is None:
        _seen = set()

    def recurse(inner: Any) -> Any:
        return observable_shape(inner, _depth + 1, _seen)

    if isinstance(value, (list, tuple)):
        return ("seq", len(value), tuple(recurse(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", len(value), tuple(sorted(map(repr, map(recurse, value)))))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                (str(key), recurse(val))
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
            ),
        )
    shape = getattr(value, "shape", None)
    itemsize = getattr(value, "itemsize", None)
    if shape is not None and itemsize is not None:  # numpy array
        return ("array", int(itemsize), tuple(int(d) for d in shape))
    if id(value) in _seen:  # cyclic object graph
        return (type(value).__name__, "cycle")
    _seen.add(id(value))
    fields = getattr(value, "__dict__", None)
    if fields is not None:
        return (
            type(value).__name__,
            tuple((name, recurse(val)) for name, val in sorted(fields.items())),
        )
    if hasattr(value, "_fields"):  # namedtuple without __dict__
        return (
            type(value).__name__,
            tuple(recurse(getattr(value, f)) for f in value._fields),
        )
    return (type(value).__name__,)


@dataclass(frozen=True)
class TraceEvent:
    """One provider-observable event: an ecall or a wire frame."""

    channel: str  # "ecall" | "frame"
    name: str  # ecall name / frame type name
    shape: Any  # observable_shape of (args, kwargs, result) / byte size

    def render(self) -> str:
        return f"{self.channel}:{self.name} {self.shape!r}"


@dataclass(frozen=True)
class LeakViolation:
    """One eager shaping-invariant breach."""

    invariant: str
    detail: str

    def render(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class LeakReport:
    """Thread-safe accumulator for trace events and violations."""

    events: list[TraceEvent] = field(default_factory=list)
    violations: list[LeakViolation] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def record_violation(self, violation: LeakViolation) -> None:
        with self._lock:
            self.violations.append(violation)

    def snapshot(self) -> list[TraceEvent]:
        with self._lock:
            return list(self.events)

    def drain(self) -> list[LeakViolation]:
        """Consume recorded violations (for deliberate-leak tests)."""
        with self._lock:
            drained = list(self.violations)
            self.violations.clear()
            return drained

    def assert_clean(self) -> None:
        with self._lock:
            found = list(self.violations)
        if found:
            rendered = "\n  ".join(v.render() for v in found)
            raise AssertionError(
                f"leak oracle recorded {len(found)} shaping violation(s):\n"
                f"  {rendered}"
            )


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class LeakOracle:
    """Patches the boundary choke points; restorable."""

    def __init__(self) -> None:
        self.report = LeakReport()
        self._patched: list[Callable[[], None]] = []
        #: extra per-scope sinks appended by :func:`capture_trace`.
        self._taps: list[Callable[[TraceEvent], None]] = []
        self._tap_lock = threading.Lock()

    # -- event intake ---------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        self.report.record(event)
        with self._tap_lock:
            taps = list(self._taps)
        for tap in taps:
            tap(event)

    def add_tap(self, tap: Callable[[TraceEvent], None]) -> None:
        with self._tap_lock:
            self._taps.append(tap)

    def remove_tap(self, tap: Callable[[TraceEvent], None]) -> None:
        with self._tap_lock:
            self._taps.remove(tap)

    # -- eager invariants ----------------------------------------------

    def _check_search_result(self, name: str, result: Any) -> None:
        ranges = getattr(result, "ranges", None)
        if ranges is None:
            return
        if ranges and len(ranges) != 2:
            self.report.record_violation(
                LeakViolation(
                    "padded-ranges",
                    f"{name} returned {len(ranges)} ordinal ranges; every "
                    "range-bearing SearchResult must carry exactly two "
                    "(real + DUMMY_RANGE padding)",
                )
            )

    def _check_ecall(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        if name == "dict_search" and isinstance(result, list):
            for item in result:
                self._check_search_result(name, item)
        elif name == "aggregate_groups" and isinstance(result, list):
            sizes = {len(blob) for blob in result}
            if not _is_power_of_two(len(result)):
                self.report.record_violation(
                    LeakViolation(
                        "pow2-group-frames",
                        f"aggregate_groups returned {len(result)} frames; "
                        "the count must be padded to a power of two",
                    )
                )
            if len(sizes) > 1:
                self.report.record_violation(
                    LeakViolation(
                        "uniform-group-frames",
                        f"aggregate_groups frames have {len(sizes)} distinct "
                        f"byte sizes {sorted(sizes)}; all frames must be "
                        "padded to one uniform size",
                    )
                )
        elif name == "reseal_delta" and isinstance(result, list):
            blobs = args[2] if len(args) > 2 else kwargs.get("blobs", ())
            in_sizes = [len(b) for b in blobs]
            out_sizes = [len(b) for b in result]
            if in_sizes != out_sizes:
                self.report.record_violation(
                    LeakViolation(
                        "reseal-delta-sizes",
                        f"reseal_delta changed the blob size vector "
                        f"({in_sizes} -> {out_sizes}); an INSERT's reseal "
                        "and a key flip must be size-invariant",
                    )
                )

    def _check_frame(self, frame_type: Any, payload: bytes) -> None:
        name = getattr(frame_type, "name", str(frame_type))
        if name != "ERROR":
            return
        from repro.net.errors import WIRE_SAFE_EXCEPTIONS, scrub_message
        from repro.net.protocol import decode_payload

        try:
            decoded = decode_payload(payload)
            kind = decoded["kind"]
            message = decoded["message"]
        except Exception:
            self.report.record_violation(
                LeakViolation(
                    "error-frame-shape",
                    "ERROR frame payload does not decode to {kind, message}",
                )
            )
            return
        if kind not in WIRE_SAFE_EXCEPTIONS:
            self.report.record_violation(
                LeakViolation(
                    "error-frame-kind",
                    f"ERROR frame carries unregistered kind {kind!r}",
                )
            )
        if scrub_message(message) != message or "Traceback" in message:
            self.report.record_violation(
                LeakViolation(
                    "error-frame-scrub",
                    f"ERROR frame message is not scrub-stable: {message[:80]!r}",
                )
            )

    # -- instrumentation ------------------------------------------------

    def instrument_default(self) -> None:
        """Patch the enclave dispatcher and the wire frame encoder."""
        self._instrument_dispatch()
        self._instrument_frames()
        with _ACTIVE_LOCK:
            _ACTIVE.append(self)

    def _instrument_dispatch(self) -> None:
        # lint: allow(boundary-import) justification="the oracle wraps the enclave dispatcher to shape-trace ecalls; it runs in tests only, never in a deployment role"
        from repro.sgx import enclave as enclave_mod

        # lint: allow(forbidden-symbol) justification="single choke point for every ecall; the wrapper records shapes only and delegates unchanged"
        original = enclave_mod.Enclave._dispatch
        oracle = self

        def traced_dispatch(self_enclave, name, args, kwargs):  # type: ignore[no-untyped-def]
            result = original(self_enclave, name, args, kwargs)
            oracle._emit(
                TraceEvent(
                    channel="ecall",
                    name=name,
                    shape=(
                        observable_shape(list(args)),
                        observable_shape(dict(kwargs)),
                        observable_shape(result),
                    ),
                )
            )
            oracle._check_ecall(name, args, kwargs, result)
            return result

        # lint: allow(forbidden-symbol) justification="installs/uninstalls the tracing wrapper on the dispatcher; test-only instrumentation"
        enclave_mod.Enclave._dispatch = traced_dispatch  # type: ignore[method-assign]
        self._patched.append(
            lambda: setattr(enclave_mod.Enclave, "_dispatch", original)
        )

    def _instrument_frames(self) -> None:
        from repro.net import client as client_mod
        from repro.net import protocol as protocol_mod
        from repro.net import server as server_mod

        original = protocol_mod.encode_frame
        oracle = self

        def traced_encode_frame(frame_type, payload):  # type: ignore[no-untyped-def]
            raw = original(frame_type, payload)
            oracle._emit(
                TraceEvent(
                    channel="frame",
                    name=getattr(frame_type, "name", str(frame_type)),
                    shape=("bytes", len(payload)),
                )
            )
            oracle._check_frame(frame_type, payload)
            return raw

        for module in (protocol_mod, server_mod, client_mod):
            if getattr(module, "encode_frame", None) is original:
                module.encode_frame = traced_encode_frame  # type: ignore[attr-defined]
                self._patched.append(
                    lambda module=module: setattr(module, "encode_frame", original)
                )

    # -- teardown -------------------------------------------------------

    def restore(self) -> None:
        with _ACTIVE_LOCK:
            if self in _ACTIVE:
                _ACTIVE.remove(self)
        while self._patched:
            self._patched.pop()()

    def __enter__(self) -> "LeakOracle":
        self.instrument_default()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


@contextmanager
def capture_trace() -> Iterator[list[TraceEvent]]:
    """Collect the provider-observable trace of one ``with`` block.

    Reuses the session-installed oracle when ``ENCDBDB_LEAK_CHECK=1`` put
    one in place (so the dispatcher is never double-wrapped); otherwise
    installs a temporary oracle for the duration of the block.
    """
    with _ACTIVE_LOCK:
        oracle = _ACTIVE[-1] if _ACTIVE else None
    events: list[TraceEvent] = []
    if oracle is not None:
        oracle.add_tap(events.append)
        try:
            yield events
        finally:
            oracle.remove_tap(events.append)
        return
    with LeakOracle() as temporary:
        temporary.add_tap(events.append)
        try:
            yield events
        finally:
            temporary.remove_tap(events.append)
