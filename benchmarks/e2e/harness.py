"""Deployments, the single-client phase runner and failure accounting.

Three ways to stand the system up, all through its public entry points:

- :func:`deploy_inproc` — ``EncDBDBSystem.create`` (proxy, server and
  enclave in this process);
- :class:`ServerProcess` + :func:`connect` — the real deployment: a
  ``python -m repro.cli serve --port 0`` child and TCP connections to it;
- :func:`deploy_colocated` — ``ServerThread(NetServer(...))`` in this
  process, used only by the traced pass so that spans on both sides of the
  socket share one clock.
"""

from __future__ import annotations

import os
import resource
import select
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from benchmarks.e2e import spec
from benchmarks.e2e.oracle import result_digest

SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 10.0


class BenchmarkError(RuntimeError):
    """The benchmark's own plumbing failed (not a failed operation)."""


# ----------------------------------------------------------------------
# Operations and their verification
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One generated statement plus what the plaintext oracle expects."""

    kind: str
    sql: str
    #: ``(rows, checksum)`` for row results, ``{group: (count, sum)}`` for
    #: ``agg``, the affected-row count for INSERT / DELETE / MERGE.
    expect: Any
    #: VARCHAR width per projected column (``None`` = integer column).
    widths: tuple = ()


def verify(op: Op, result: Any) -> bool:
    """Does ``result`` match the oracle's expectation for ``op``?"""
    if op.kind == "agg":
        got = {row[0]: (row[1], row[2]) for row in result.rows}
        return got == op.expect
    if op.widths:
        return result_digest(result.rows, op.widths) == tuple(op.expect)
    return result == op.expect


def rows_of(result: Any) -> int:
    rows = getattr(result, "rows", None)
    return len(rows) if rows is not None else 0


@dataclass
class PhaseResult:
    """Latencies and failure counts of one phase (times in seconds)."""

    name: str
    latencies: list[float] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    #: Wall time of the phase where it ran as one block (0 = interleaved
    #: with other kinds: use ``busy_s``).
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3

    def absorb(self, other: "PhaseResult") -> None:
        """Fold another burst of the same phase into this one."""
        self.latencies += other.latencies
        self.rows += other.rows
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.errors += other.errors

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "samples": len(self.latencies),
            "wall_s": self.wall_s or self.busy_s,
            "errors": self.errors[:5],
        }


def timed_op(
    execute: Callable[[str], Any], op: Op, phase: PhaseResult, tracer=None, op_id=None
) -> Any:
    """Run one op: time it, then (outside the timed region) check it.

    A raised exception or an oracle mismatch is a failed op; its latency is
    still recorded so a failing system cannot look faster.
    """
    phase.attempted += 1
    result = None
    raised: Exception | None = None
    traced = tracer.span(f"op.{op.kind}", op=op_id) if tracer else nullcontext()
    start = time.perf_counter()
    with traced:
        try:
            result = execute(op.sql)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            raised = exc
    elapsed = time.perf_counter() - start
    phase.latencies.append(elapsed)
    if raised is not None:
        phase.failed += 1
        phase.errors.append(f"{op.kind}: {type(raised).__name__}: {raised}")
        return None
    phase.rows += rows_of(result)
    if not verify(op, result):
        phase.failed += 1
        phase.errors.append(f"{op.kind}: oracle mismatch on {op.sql[:80]!r}")
    return result


@dataclass
class Lane:
    """One op stream of an interleaved phase group."""

    name: str
    ops: Sequence[Op]
    min_ops: int
    warm_ops: int


def run_lanes(
    execute: Callable[[str], Any], lanes: Sequence[Lane], *, budget_s: float, block: int = 1
) -> dict[str, PhaseResult]:
    """Single client, closed loop: warm up, then time ops for ``budget_s``.

    With several lanes they take turns, ``block`` ops at a time, so that a
    drift in host speed hits every lane alike — which is what makes a ratio
    between two lanes (``enc_over_plain``) steadier than either of them.
    Runs until the budget is spent *and* every lane recorded its
    ``min_ops``, cycling through a lane's ops if a fast system exhausts them.
    """
    phases = {lane.name: PhaseResult(lane.name) for lane in lanes}
    for lane in lanes:
        for op in lane.ops[: lane.warm_ops]:
            execute(op.sql)
    timed = [lane.ops[lane.warm_ops :] or lane.ops for lane in lanes]
    started = time.perf_counter()
    done = 0
    while time.perf_counter() - started < budget_s or any(
        done < lane.min_ops for lane in lanes
    ):
        for lane, ops in zip(lanes, timed):
            for index in range(done, done + block):
                timed_op(execute, ops[index % len(ops)], phases[lane.name])
        done += block
    if len(lanes) == 1:
        phases[lanes[0].name].wall_s = time.perf_counter() - started
    return phases


def run_fixed(name: str, execute: Callable[[str], Any], ops: Sequence[Op]) -> PhaseResult:
    """Run exactly ``ops`` once each, untraced (per-layer pass baselines)."""
    phase = PhaseResult(name)
    started = time.perf_counter()
    for op in ops:
        timed_op(execute, op, phase)
    phase.wall_s = time.perf_counter() - started
    return phase


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------
def scratch_dir() -> Path:
    """A per-process directory under ``out/`` for saved databases and logs."""
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=spec.OUT_DIR))


def deploy_inproc(seed: int, *, cache_bytes: int | None = None):
    from repro import EncDBDBSystem
    from repro.sgx.cache import FastPathConfig

    fastpath = (
        FastPathConfig(dictionary_cache_bytes=cache_bytes) if cache_bytes else None
    )
    return EncDBDBSystem.create(seed=seed, fastpath=fastpath)


def connect(port: int, seed: int):
    from repro import EncDBDBSystem

    return EncDBDBSystem.connect("127.0.0.1", port, seed=seed)


class ServerProcess:
    """The untrusted side as a child process, started and reaped with care.

    ``--port 0`` lets the kernel pick the port (parsed from the child's
    ``listening on`` line); :meth:`stop` terminates and reaps the child and
    then *checks* that it is gone and the port is closed — a leaked child or
    open port raises :class:`BenchmarkError` and fails the run. The child's
    stderr goes to a file so a failure can quote it.
    """

    def __init__(self, workdir: Path) -> None:
        self._workdir = workdir
        self._proc: subprocess.Popen | None = None
        self._stderr_path = workdir / f"server-{time.monotonic_ns()}.stderr"
        self.port: int | None = None

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        src = str(spec.ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self._stderr_path, "wb") as stderr:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                cwd=spec.ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop(check=False)
            raise
        return self

    def _read_port(self) -> int:
        assert self._proc is not None and self._proc.stdout is not None
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        buffered = b""
        while time.monotonic() < deadline and self._proc.poll() is None:
            ready, _, _ = select.select([self._proc.stdout], [], [], 0.2)
            if not ready:
                continue
            chunk = os.read(self._proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            *complete, buffered = buffered.split(b"\n")
            for line in complete:
                if b"listening on" in line:
                    return int(line.rsplit(b":", 1)[1])
        raise BenchmarkError(
            "server child did not report a port; stderr:\n" + self.stderr_text()
        )

    def stderr_text(self) -> str:
        try:
            return self._stderr_path.read_text(errors="replace")[-4000:]
        except OSError:
            return ""

    def stop(self, *, check: bool = True) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(SERVER_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(SERVER_STOP_TIMEOUT_S)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
        if not check:
            return
        if proc.poll() is None:
            raise BenchmarkError(f"server child {proc.pid} leaked")
        if self.port is not None and _port_open(self.port):
            raise BenchmarkError(f"port {self.port} still open after server stop")

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(check=exc_info[0] is None)


def _port_open(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return True
    except OSError:
        return False


def deploy_colocated():
    """A started ``ServerThread`` around a fresh default server (traced pass)."""
    from repro.net import NetServer, ServerThread
    from repro.server.dbms import EncDBDBServer

    return ServerThread(NetServer(EncDBDBServer())).start()


# ----------------------------------------------------------------------
# Set-up timing and memory
# ----------------------------------------------------------------------
def median_setup(
    build: Callable[[], Any], teardown: Callable[[Any], None], repeats: int
) -> tuple[Any, float, list[float]]:
    """Set the deployment up ``repeats`` times; keep the last, time them all."""
    times: list[float] = []
    deployment = None
    for index in range(repeats):
        if deployment is not None:
            teardown(deployment)
        start = time.perf_counter()
        deployment = build()
        times.append(time.perf_counter() - start)
    return deployment, statistics.median(times), times


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux
