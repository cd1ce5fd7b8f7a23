"""Out-of-program tracer: spans recorded from the benchmark's own files.

The system under test has no tracing of its own yet (ROADMAP item 1), so the
per-layer pass times each layer *from outside*: :meth:`Tracer.install`
substitutes thin wrappers for the public callables at every layer boundary
(:func:`_targets`), :meth:`Tracer.remove` puts the originals back, and the
untraced pass never imports this module's wrappers at all.

A span is ``(id, parent, op, name, start, end, count)``. Each thread keeps
its own span stack; a span opened on a thread with an empty stack adopts the
*remote parent* — the client's open ``net.rtt`` span — which is how
server-side spans of a co-located :class:`~repro.net.server.ServerThread`
(event-loop thread, ``to_thread`` worker) land under the request that caused
them. That is only sound with one request in flight, which is why the traced
pass is single-client and closed-loop.

Calls too frequent to afford a span each (per-blob PAE) are *aggregated*:
their time and count accumulate on the enclosing span and are emitted as one
synthetic child when it closes.

Self time of a span = its duration − the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable

#: Σ self times of an op's span tree must match the op's wall time this well.
SELF_TIME_TOLERANCE = 0.05


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._remote_parent: tuple[int, Any] | None = None
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, op: Any = None, remote: bool = False):
        """Record one span; ``remote`` publishes it as the remote parent."""
        stack = self._stack()
        if stack:
            parent, parent_op = stack[-1][0], stack[-1][1]
        elif self._remote_parent is not None:
            parent, parent_op = self._remote_parent
        else:
            parent, parent_op = None, None
        span_id = next(self._ids)
        op = op if op is not None else parent_op
        aggregates: dict[str, list] = {}
        stack.append((span_id, op, aggregates))  # aggregates: name -> [count, s]
        previous_remote = self._remote_parent
        if remote:
            self._remote_parent = (span_id, op)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            if remote:
                self._remote_parent = previous_remote
            stack.pop()
            self.spans.append((span_id, parent, op, name, start, end, 1))
            for child_name, (count, total) in aggregates.items():
                # Named after the caller: "crypto.pae.decrypt@client.proxy.execute".
                self.spans.append(
                    (next(self._ids), span_id, op, f"{child_name}@{name}",
                     start, start + total, count)
                )

    def _aggregate(self, name: str, elapsed: float, count: int) -> None:
        stack = self._stack()
        if not stack:
            return  # outside any traced op (e.g. set-up): not attributed
        slot = stack[-1][2].get(name)
        if slot is None:
            stack[-1][2][name] = [count, elapsed]
        else:
            slot[0] += count
            slot[1] += elapsed

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        *,
        remote: bool = False,
        aggregate: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`remove`.

        ``name`` may be a callable of the call's arguments (ecalls are named
        after their entry point). ``aggregate`` turns the wrapper into a
        leaf accumulator and returns how many operations the call performed.
        """
        target = getattr(owner, attr)
        tracer = self

        if aggregate is not None:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return target(*args, **kwargs)
                finally:
                    tracer._aggregate(
                        name, time.perf_counter() - start, aggregate(*args, **kwargs)
                    )

        else:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                with tracer.span(label, remote=remote):
                    return target(*args, **kwargs)

        self._originals.append((owner, attr, target))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for owner, attr, name, options in _targets():
            self.wrap(owner, attr, name, **options)
        return self

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # ------------------------------------------------------------------
    def dump(self, path: Path, *, meta: dict | None = None) -> None:
        """Write every span (kept in memory until now) as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta or {},
                    "fields": ["id", "parent", "op", "name", "start", "end", "count"],
                    "spans": self.spans,
                },
                handle,
            )


def _targets() -> Iterable[tuple[Any, str, Any, dict]]:
    """The public layer boundaries the per-layer pass wraps.

    Module-level functions are patched in the namespace of the module that
    *calls* them (``from x import f`` binds a private reference there).
    """
    import repro.client.proxy as proxy_module
    import repro.columnstore.column as column_module
    import repro.net.client as net_client
    import repro.net.server as net_server
    from repro.client.owner import DataOwner
    from repro.client.proxy import Proxy
    from repro.crypto.pae import Pae
    from repro.server.dbms import EncDBDBServer
    from repro.sgx.enclave import EnclaveHost
    from repro.sql.planner import Planner

    one = lambda *a, **k: 1  # noqa: E731
    many = lambda self, key, items, *a, **k: len(items)  # noqa: E731
    yield Proxy, "execute", "client.proxy.execute", {}
    yield proxy_module, "parse", "sql.parse", {}
    yield Planner, "plan", "sql.plan", {}
    yield proxy_module, "encrypt_search_range", "client.proxy.encrypt_bounds", {}
    yield Pae, "encrypt", "crypto.pae.encrypt", {"aggregate": one}
    yield Pae, "decrypt", "crypto.pae.decrypt", {"aggregate": one}
    yield Pae, "encrypt_many", "crypto.pae.encrypt", {"aggregate": many}
    yield Pae, "decrypt_many", "crypto.pae.decrypt", {"aggregate": many}
    yield net_client.NetConnection, "call", "net.rtt", {"remote": True}
    yield net_client, "encode_payload", "net.encode", {}
    yield net_client, "decode_payload", "net.decode", {}
    yield net_server, "encode_payload", "net.server.encode", {}
    yield net_server, "decode_payload", "net.server.decode", {}
    for verb in (
        "execute_select",
        "execute_select_pushdown",
        "execute_insert",
        "execute_delete",
        "execute_merge",
        "bulk_load",
        "bulk_load_stream",
        "save",
        "load",
    ):
        yield EncDBDBServer, verb, f"sql.executor.{verb}", {}
    yield EnclaveHost, "ecall", (lambda self, name, *a, **k: f"sgx.ecall.{name}"), {}
    yield column_module, "attr_vect_search", "encdict.attrvect.scan", {}
    yield column_module, "attr_vect_search_many", "encdict.attrvect.scan", {}
    yield DataOwner, "deploy_table", "encdict.build", {}


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time per span id: duration minus the children's durations."""
    own = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        parent = span[1]
        if parent in own:
            own[parent] -= span[5] - span[4]
    return own


def summarize(spans: list[tuple], root_prefix: str = "op.") -> dict[str, dict]:
    """Per op kind: mean wall time and, per span name, mean time per op.

    Returns ``{kind: {"ops", "op_ms", "layers": {name: {"ms", "self_ms",
    "count"}}, "self_sum_error"}}`` where every ``ms`` is a mean per op of
    that kind and ``self_sum_error`` is the largest relative gap between an
    op's wall time and the (non-negative) self times of its span tree.
    """
    own = self_times(spans)
    root_of = {span[2]: span for span in spans if span[3].startswith(root_prefix)}
    self_sum: dict[Any, float] = defaultdict(float)
    # kind -> span name -> [total s, self s, calls]
    totals: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for span_id, _, op, name, start, end, count in spans:
        root = root_of.get(op)
        if root is None:
            continue
        self_sum[op] += max(0.0, own[span_id])
        if span_id != root[0]:
            slot = totals[root[3][len(root_prefix):]][name]
            slot[0] += end - start
            slot[1] += own[span_id]
            slot[2] += count
    summary: dict[str, dict] = {}
    for op, root in root_of.items():
        kind, wall = root[3][len(root_prefix):], root[5] - root[4]
        entry = summary.setdefault(kind, {"ops": 0, "op_ms": 0.0, "self_sum_error": 0.0})
        entry["ops"] += 1
        entry["op_ms"] += wall * 1e3
        if wall > 0:
            entry["self_sum_error"] = max(
                entry["self_sum_error"], abs(self_sum[op] - wall) / wall
            )
    for kind, entry in summary.items():
        n = entry["ops"]
        entry["op_ms"] /= n
        entry["layers"] = {
            name: {"ms": total / n * 1e3, "self_ms": self_s / n * 1e3, "count": calls / n}
            for name, (total, self_s, calls) in sorted(totals[kind].items())
        }
    return summary


def layer_ms(summary: dict, prefix: str, *, own: bool = False) -> float:
    """Σ mean ms per op over the layers whose name starts with ``prefix``."""
    key = "self_ms" if own else "ms"
    return sum(
        layer[key] for name, layer in summary["layers"].items() if name.startswith(prefix)
    )


def layer_count(summary: dict, prefix: str) -> float:
    return sum(
        layer["count"] for name, layer in summary["layers"].items() if name.startswith(prefix)
    )
