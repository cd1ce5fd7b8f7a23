"""The four workloads: generated inputs, set-up, phases, end-to-end metrics.

Each workload draws all of its data from ``repro.workloads.generator``'s
C1/C2 column profiles, seeded by ``--seed``; the system under test only ever
receives the generated SQL. The per-layer pass over the same op lists lives
in :mod:`benchmarks.e2e.layers`.

Every workload reports the same end-to-end metrics; what each one means on
each workload is the table in README.md ("End-to-end metrics").
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from typing import Any, Callable

import numpy as np

from benchmarks.e2e import spec
from benchmarks.e2e.harness import (
    BenchmarkError,
    Op,
    PhaseResult,
    ServerProcess,
    connect,
    deploy_inproc,
    Lane,
    rows_of,
    run_lanes,
    scratch_dir,
    timed_op,
    verify,
)
from benchmarks.e2e.loadgen import (
    LoopResult,
    closed_loop,
    open_loop,
    poisson_schedule,
    summarize_open,
)
from benchmarks.e2e.oracle import (
    GroupOracle,
    RangeOracle,
    masked_expectation,
    row_hashes,
    string_array,
)
from benchmarks.e2e.stats import highest_supported_percentile, percentile

K_WIDTH = 12  # C1 strings
D_WIDTH = 10  # C2 strings
#: Ops handed to each closed-loop client (more than a phase can consume).
CLOSED_OPS_PER_CLIENT = 2500


def _numpy_rng(rng) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int.from_bytes(rng.random_bytes(8), "big")))


def _windows(
    oracle: RangeOracle, size: int, count: int, rng, *, tolerance: float | None = None
) -> list[tuple[str, str]]:
    """``count`` seeded windows of ``size`` consecutive unique values.

    The paper's RS-parameterised range query (§6.3). With ``tolerance`` only
    windows whose row count lies within that share of the median window are
    drawn: C2's Zipf skew otherwise makes result size — and so latency —
    depend on which few hot values a seed happens to cover.
    """
    rows = oracle.window_rows(size)
    starts = np.arange(len(rows))
    if tolerance is not None:
        middle = float(np.median(rows))
        starts = starts[np.abs(rows - middle) <= tolerance * middle]
    picks = _numpy_rng(rng).choice(starts, size=count)
    return [oracle.window(int(start), size) for start in picks]


def _range_ops(
    kind: str,
    table: str,
    column: str,
    oracle: RangeOracle,
    windows: list[tuple[str, str]],
    widths: tuple,
    projection: str | None = None,
) -> list[Op]:
    """``SELECT projection WHERE column BETWEEN`` per window (default: the column)."""
    return [
        Op(
            kind,
            f"SELECT {projection or column} FROM {table} "
            f"WHERE {column} BETWEEN '{low}' AND '{high}'",
            oracle.expect(low, high),
            widths,
        )
        for low, high in windows
    ]


class Workload:
    """Shared skeleton: sizes, seeded randomness, scratch space."""

    name = ""
    table = ""
    schema = ""

    def __init__(self, seed: int, *, seconds: float, smoke: bool = False) -> None:
        from repro.crypto.drbg import HmacDrbg

        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.rows = spec.SMOKE_ROWS if smoke else spec.ROWS[self.name]
        self.scale = self.rows / spec.ROWS[self.name]
        self.partition_rows = math.ceil(self.rows / spec.PARTITIONS)
        self.rng = HmacDrbg(f"e2e-{self.name}-{seed}")
        self.workdir = scratch_dir()
        self.columns: dict[str, list] = {}
        self.phases: list[PhaseResult] = []
        self.notes: dict[str, Any] = {}

    # -- knobs that --smoke shrinks -----------------------------------
    def phase(self, name: str) -> tuple[float, int, int]:
        share, min_ops, warm = spec.PHASES[self.name][name]
        if self.smoke:
            min_ops, warm = max(2, min_ops // 25), min(warm, 2)
        return share * self.seconds, min_ops, warm

    def tail(self, samples: list[float]) -> float:
        """The workload's fixed tail percentile (smoke: whatever fits)."""
        p = spec.TAIL_PERCENTILE[self.name]
        if self.smoke:
            p = min(p, highest_supported_percentile(len(samples)))
        return percentile(samples, p)

    def run_phases(self, execute, before_group=None) -> dict[str, PhaseResult]:
        """The workload's single-client phases in ``spec.PHASES`` order; the
        encrypted phase and its plaintext twin take turns (``INTERLEAVED``)."""
        twins, block = spec.INTERLEAVED[self.name]
        groups = [twins] + [(name,) for name in spec.PHASES[self.name] if name not in twins]
        results: dict[str, PhaseResult] = {}
        for group in groups:
            if before_group is not None:
                before_group(group)
            lanes, budget = [], 0.0
            for name in group:
                share, min_ops, warm = self.phase(name)
                budget += share
                lanes.append(Lane(name, self.ops[name], min_ops, warm))
            results.update(
                run_lanes(execute, lanes, budget_s=budget, block=block if len(group) > 1 else 1)
            )
        self.phases = list(results.values())
        return results

    # -- lifecycle ------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def load(self, system) -> None:
        """CREATE + bulk_load through the public session API."""
        system.execute(f"CREATE TABLE {self.table} ({self.schema})")
        loaded = system.bulk_load(
            self.table, self.columns, partition_rows=self.partition_rows
        )
        if loaded != self.rows:
            raise BenchmarkError(f"bulk_load stored {loaded} of {self.rows} rows")

    def build(self) -> Any:
        raise NotImplementedError

    def teardown(self, deployment: Any) -> None:
        raise NotImplementedError

    def measure(self, deployment: Any) -> dict[str, float]:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def stored_bytes_per_row(self, system, live_rows: int) -> float:
        path = self.workdir / f"{self.name}.encdbdb"
        system.save(path)
        return path.stat().st_size / live_rows


class TcpWorkload(Workload):
    """A workload whose server is a ``repro.cli serve`` child process."""

    clients = 1

    def build(self):
        server = ServerProcess(self.workdir).start()
        systems = []
        try:
            systems.append(connect(server.port, self.seed))
            self.load(systems[0])
            for _ in range(1, self.clients):
                systems.append(connect(server.port, self.seed))
        except BaseException:
            for system in systems:
                system.close()
            server.stop(check=False)
            raise
        return server, systems

    def teardown(self, deployment) -> None:
        server, systems = deployment
        for system in systems:
            system.close()
        server.stop()


# ----------------------------------------------------------------------
class RangeInproc(Workload):
    """Tiny results: search, scan and the ecall boundary are the whole op."""

    name = "range_inproc"
    table = "facts"
    schema = (
        f"k ED5 VARCHAR({K_WIDTH}) BSMAX 10, kp VARCHAR({K_WIDTH}), "
        f"u ED9 VARCHAR({D_WIDTH})"
    )

    def generate(self) -> None:
        from repro.workloads.generator import C1_SPEC, C2_SPEC, generate_bw_column

        k = generate_bw_column(C1_SPEC, self.rows, self.rng.fork("k"))
        u = generate_bw_column(C2_SPEC, self.rows, self.rng.fork("u"))
        self.columns = {"k": k, "kp": k, "u": u}
        k_array, u_array = string_array(k, K_WIDTH), string_array(u, D_WIDTH)
        k_oracle = RangeOracle(k_array, row_hashes([k_array]))
        u_oracle = RangeOracle(u_array, row_hashes([u_array]))
        seeks = _windows(k_oracle, spec.SEEK_RANGE_SIZE, 6000, self.rng.fork("seek"))
        spills = _windows(u_oracle, spec.NARROW_RANGE_SIZE, 200, self.rng.fork("spill"))
        self.ops = {
            "seek": _range_ops("seek", self.table, "k", k_oracle, seeks, (K_WIDTH,)),
            "plain": _range_ops("plain", self.table, "kp", k_oracle, seeks, (K_WIDTH,)),
            "spill": _range_ops("spill", self.table, "u", u_oracle, spills, (D_WIDTH,)),
        }

    def build(self):
        system = deploy_inproc(
            self.seed, cache_bytes=max(4096, int(spec.RANGE_CACHE_BYTES * self.scale))
        )
        self.load(system)
        return system

    def teardown(self, system) -> None:
        system.close()

    def measure(self, system) -> dict[str, float]:
        # spill runs alone and last: it flushes the enclave's entry cache.
        results = self.run_phases(system.execute)
        seek, plain, spill = results["seek"], results["plain"], results["spill"]
        seek_ms = [latency * 1e3 for latency in seek.latencies]
        return {
            "lat_p50_ms": seek.p50_ms(),
            "lat_tail_ms": self.tail(seek_ms),
            "ops_per_s": len(seek.latencies) / seek.busy_s,
            "rows_per_s": seek.rows / seek.busy_s,
            "alt_p50_ms": spill.p50_ms(),
            "enc_over_plain": seek.p50_ms() / plain.p50_ms(),
            "stored_bytes_per_row": self.stored_bytes_per_row(system, self.rows),
        }


# ----------------------------------------------------------------------
class WideTcp(TcpWorkload):
    """Wide results: render, wire codec and proxy decrypt are the whole op."""

    name = "wide_tcp"
    table = "sales"
    schema = (
        f"d ED1 VARCHAR({D_WIDTH}), m ED1 INTEGER, "
        f"dp VARCHAR({D_WIDTH}), mp INTEGER"
    )

    def generate(self) -> None:
        from repro.workloads.generator import C2_SPEC, generate_bw_column

        d = generate_bw_column(C2_SPEC, self.rows, self.rng.fork("d"))
        measure = _numpy_rng(self.rng.fork("m")).integers(
            0, spec.AGG_MEASURE_DISTINCT, size=self.rows
        )
        m = measure.tolist()
        self.columns = {"d": d, "m": m, "dp": d, "mp": m}
        d_array = string_array(d, D_WIDTH)
        oracle = RangeOracle(d_array, row_hashes([d_array, measure]))
        windows = _windows(
            oracle, spec.SEEK_RANGE_SIZE, 400, self.rng.fork("ship"),
            tolerance=spec.SHIP_ROWS_TOLERANCE,
        )
        widths = (D_WIDTH, None)
        starts = _numpy_rng(self.rng.fork("agg")).integers(
            0, spec.AGG_MEASURE_DISTINCT - spec.AGG_WINDOW, size=600
        )
        groups = GroupOracle(d_array, measure)
        aggs = [
            Op(
                "agg",
                f"SELECT d, COUNT(*), SUM(m) FROM {self.table} "
                f"WHERE m BETWEEN {low} AND {low + spec.AGG_WINDOW} GROUP BY d",
                groups.expect(low, low + spec.AGG_WINDOW),
            )
            for low in starts.tolist()
        ]
        self.ops = {
            "ship": _range_ops("ship", self.table, "d", oracle, windows, widths, "d, m"),
            "ship_plain": _range_ops(
                "ship_plain", self.table, "dp", oracle, windows, widths, "dp, mp"
            ),
            "agg": aggs,
        }

    def measure(self, deployment) -> dict[str, float]:
        _, (system,) = deployment
        results = self.run_phases(
            system.execute, lambda group: system.proxy.enable_pushdown(group == ("agg",))
        )
        system.proxy.enable_pushdown(False)
        ship, plain, agg = results["ship"], results["ship_plain"], results["agg"]
        return {
            "lat_p50_ms": ship.p50_ms(),
            "lat_tail_ms": self.tail([latency * 1e3 for latency in agg.latencies]),
            "ops_per_s": len(ship.latencies) / ship.busy_s,
            "rows_per_s": ship.rows / ship.busy_s,
            "alt_p50_ms": agg.p50_ms(),
            "enc_over_plain": ship.p50_ms() / plain.p50_ms(),
            "stored_bytes_per_row": self.stored_bytes_per_row(system, self.rows),
        }


# ----------------------------------------------------------------------
class RowCheck:
    """The load generator's ``check``: the oracle, plus a count of rows."""

    def __init__(self) -> None:
        self.rows = 0

    def __call__(self, op: Op, result: Any) -> bool:
        self.rows += rows_of(result)  # int += under the interpreter lock: the sum is exact
        return verify(op, result)


def loop_phase(name: str, result: LoopResult, check: RowCheck) -> PhaseResult:
    """Fold a load-generator result into the common phase accounting."""
    phase = PhaseResult(name)
    phase.latencies = [record.end - record.start for record in result.records]
    phase.attempted = result.scheduled
    phase.failed = result.failed
    phase.rows = check.rows
    phase.wall_s = result.wall_s
    phase.errors = list(result.errors)
    return phase


class ServeTcp(TcpWorkload):
    """Two sessions contend for the server's ecall lock and thread hop."""

    name = "serve_tcp"
    table = "facts2"
    clients = spec.SERVE_CLIENTS
    schema = (
        f"k ED5 VARCHAR({K_WIDTH}) BSMAX 10, g ED6 VARCHAR({D_WIDTH}) BSMAX 10, "
        f"kp VARCHAR({K_WIDTH}), gp VARCHAR({D_WIDTH})"
    )

    def generate(self) -> None:
        from repro.workloads.generator import C1_SPEC, C2_SPEC, generate_bw_column

        k = generate_bw_column(C1_SPEC, self.rows, self.rng.fork("k"))
        g = generate_bw_column(C2_SPEC, self.rows, self.rng.fork("g"))
        self.columns = {"k": k, "g": g, "kp": k, "gp": g}
        k_array, g_array = string_array(k, K_WIDTH), string_array(g, D_WIDTH)
        k_oracle = RangeOracle(k_array, row_hashes([k_array]))
        g_oracle = RangeOracle(g_array, row_hashes([g_array]))
        count = self.clients * CLOSED_OPS_PER_CLIENT + 200  # + warm-up
        seeks = _windows(k_oracle, spec.SEEK_RANGE_SIZE, count, self.rng.fork("seek"))
        narrows = _windows(
            g_oracle, spec.NARROW_RANGE_SIZE, count, self.rng.fork("narrow"),
            tolerance=spec.NARROW_ROWS_TOLERANCE,
        )
        # The 80/20 mix is drawn per request from the seed.
        narrow = _numpy_rng(self.rng.fork("mix")).random(count) < spec.SERVE_NARROW_SHARE
        self.mix, self.mix_plain = [], []
        for index in range(count):
            if narrow[index]:
                window, kind, column, widths, oracle = narrows[index], "narrow", "g", (D_WIDTH,), g_oracle
            else:
                window, kind, column, widths, oracle = seeks[index], "seek", "k", (K_WIDTH,), k_oracle
            self.mix += _range_ops(kind, self.table, column, oracle, [window], widths)
            self.mix_plain += _range_ops(
                kind + "_plain", self.table, column + "p", oracle, [window], widths
            )
        self.rates = {
            name: rate if not self.smoke else max(5.0, rate / 4)
            for name, rate in spec.SERVE_RATES.items()
        }

    def closed_phases(self, systems) -> tuple[PhaseResult, PhaseResult, list[float]]:
        """Both clients back-to-back on the encrypted mix and on its
        plaintext twin, alternating in bursts so host drift hits both alike.
        Returns the two phases and the latencies (s) of the ``g`` ops.
        """
        bursts = 1 if self.smoke else spec.SERVE_CLOSED_BURSTS
        clients = [system.execute for system in systems]
        streams = {"closed": self.mix, "closed_plain": self.mix_plain}
        phases = {name: PhaseResult(name) for name in streams}
        cursors = {}
        for name, ops in streams.items():
            _, _, warm = self.phase(name)
            for op in ops[: len(clients) * warm]:
                systems[0].execute(op.sql)
            cursors[name] = len(clients) * warm
        take = CLOSED_OPS_PER_CLIENT // bursts
        narrow: list[float] = []
        for _ in range(bursts):
            for name, ops in streams.items():
                budget, min_ops, _ = self.phase(name)
                start, check = cursors[name], RowCheck()
                result = closed_loop(
                    [lambda op, run=run: run(op.sql) for run in clients],
                    [ops[start + index * take : start + (index + 1) * take]
                     for index in range(len(clients))],
                    budget_s=budget / bursts, min_ops=min_ops // bursts, check=check,
                )
                cursors[name] = start + len(clients) * take
                phases[name].absorb(loop_phase(name, result, check))
                narrow += [
                    record.end - record.start
                    for record in result.records
                    if record.kind == "narrow"
                ]
        return phases["closed"], phases["closed_plain"], narrow

    def open_phase(self, name: str, systems, ops: list[Op], rate: float, duration: float):
        """One open-loop phase at a fixed rate; returns (phase, summary)."""
        arrivals = int.from_bytes(self.rng.fork(f"arrivals-{name}").random_bytes(8), "big")
        due = poisson_schedule(rate, duration, arrivals)
        check = RowCheck()
        result = open_loop(
            [lambda op, run=system.execute: run(op.sql) for system in systems], ops, due, check
        )
        summary = summarize_open(
            result, due, limit_ms=spec.SERVE_LIMIT_MS,
            tail_percentile=None if self.smoke else spec.OPEN_TAIL_PERCENTILE,
        )
        summary["rate"] = rate
        summary["valid"] = bool(
            summary.get("lag_tail_ms", 0.0)
            <= spec.LOADGEN_LAG_SHARE * summary.get("p50_ms", math.inf)
        )
        return loop_phase(name, result, check), summary

    def measure(self, deployment) -> dict[str, float]:
        _, systems = deployment
        closed, plain, narrow = self.closed_phases(systems)
        self.phases = [closed, plain]
        return {
            "lat_p50_ms": closed.p50_ms(),
            "lat_tail_ms": self.tail([latency * 1e3 for latency in closed.latencies]),
            "ops_per_s": len(closed.latencies) / closed.wall_s,
            "rows_per_s": closed.rows / closed.wall_s,
            "alt_p50_ms": statistics.median(narrow) * 1e3,
            "enc_over_plain": closed.p50_ms() / plain.p50_ms(),
            "stored_bytes_per_row": self.stored_bytes_per_row(systems[0], self.rows),
        }


# ----------------------------------------------------------------------
class WriteMerge(Workload):
    """The same layers the other way round: insert, delete, merge, save, load."""

    name = "write_merge"
    table = "events"
    schema = (
        f"seq INTEGER, k ED5 VARCHAR({K_WIDTH}) BSMAX 10, "
        f"kp VARCHAR({K_WIDTH}), d ED1 VARCHAR({D_WIDTH})"
    )

    def generate(self) -> None:
        from repro.workloads.generator import C1_SPEC, C2_SPEC, generate_bw_column

        pairs = spec.WRITE_PAIRS_PER_ROUND if not self.smoke else 4
        batch = spec.WRITE_ROWS_PER_INSERT if not self.smoke else 5
        retire = max(1, int(spec.WRITE_DELETE_ROWS * self.scale))
        fresh_rows = spec.WRITE_MAX_ROUNDS * pairs * batch
        k = generate_bw_column(C1_SPEC, self.rows, self.rng.fork("k"))
        d = generate_bw_column(C2_SPEC, self.rows, self.rng.fork("d"))
        self.columns = {"seq": list(range(self.rows)), "k": k, "kp": k, "d": d}
        fresh_k = generate_bw_column(C1_SPEC, fresh_rows, self.rng.fork("fresh-k"))
        fresh_d = generate_bw_column(C2_SPEC, fresh_rows, self.rng.fork("fresh-d"))
        # The oracle's model of the table: every row that will ever exist,
        # a liveness mask advanced op by op in generated order.
        all_k = string_array(k + fresh_k, K_WIDTH)
        hashes = row_hashes([all_k])
        seq = np.arange(self.rows + fresh_rows)
        alive = np.zeros(len(seq), dtype=bool)
        alive[: self.rows] = True
        base = RangeOracle(all_k[: self.rows], hashes[: self.rows])
        windows = _windows(
            base, spec.SEEK_RANGE_SIZE, spec.WRITE_MAX_ROUNDS * pairs, self.rng.fork("seek")
        )
        self.rounds: list[list[Op]] = []
        #: Per round, a read of its last window as it stands *after* the
        #: round's DELETE — what a reloaded database must still answer.
        self.probes: list[Op] = []
        next_row = self.rows
        for round_index in range(1, spec.WRITE_MAX_ROUNDS + 1):
            ops: list[Op] = []
            for pair in range(pairs):
                rows = range(next_row, next_row + batch)
                values = ", ".join(
                    f"({row}, '{fresh_k[row - self.rows]}', "
                    f"'{fresh_k[row - self.rows]}', '{fresh_d[row - self.rows]}')"
                    for row in rows
                )
                ops.append(Op("insert", f"INSERT INTO {self.table} VALUES {values}", batch))
                alive[next_row : next_row + batch] = True
                next_row += batch
                low, high = windows[(round_index - 1) * pairs + pair]
                selected = alive & (all_k >= low.encode()) & (all_k <= high.encode())
                expect = masked_expectation(selected, hashes)
                for kind, column in (("seek", "k"), ("plain", "kp")):
                    ops.append(
                        Op(
                            kind,
                            f"SELECT {column} FROM {self.table} "
                            f"WHERE {column} BETWEEN '{low}' AND '{high}'",
                            expect,
                            (K_WIDTH,),
                        )
                    )
            doomed = alive & (seq < retire * round_index)
            ops.append(
                Op(
                    "delete",
                    f"DELETE FROM {self.table} WHERE seq < {retire * round_index}",
                    int(doomed.sum()),
                )
            )
            alive[doomed] = False
            selected = alive & (all_k >= low.encode()) & (all_k <= high.encode())
            self.probes.append(
                Op(
                    "seek",
                    f"SELECT k FROM {self.table} WHERE k BETWEEN '{low}' AND '{high}'",
                    masked_expectation(selected, hashes),
                    (K_WIDTH,),
                )
            )
            ops.append(Op("merge", f"MERGE TABLE {self.table}", int(alive.sum())))
            self.rounds.append(ops)

    def build(self):
        system = deploy_inproc(self.seed)
        self.load(system)
        return system

    def teardown(self, system) -> None:
        system.close()

    def run_round(
        self, system, ops: list[Op], phases: dict[str, PhaseResult], tracer=None, op_base=0
    ) -> None:
        """One round; after its MERGE the layout counters must add up."""
        for index, op in enumerate(ops):
            phase = phases.setdefault(op.kind, PhaseResult(op.kind))
            timed_op(system.execute, op, phase, tracer, op_base + index)
        stats = system.server.executor.last_merge_stats
        merge = phases["merge"]
        if stats is None or (
            stats.partitions_kept + stats.partitions_rebuilt + stats.partitions_dropped
            != stats.partitions_total
            or stats.rows_after != ops[-1].expect
        ):
            merge.failed += 1
            merge.errors.append(f"MergeStats invariant broken: {stats}")
        self.notes.setdefault("merge_stats", []).append(
            {
                "kept": stats.partitions_kept,
                "rebuilt": stats.partitions_rebuilt,
                "total": stats.partitions_total,
                "delta_rows": stats.delta_rows_merged,
            }
            if stats
            else None
        )

    def reload(self, system, live_rows: int, probe: Op) -> tuple[PhaseResult, dict]:
        """save -> fresh server load -> verified read -> byte-for-byte resave."""
        phase = PhaseResult("reload")
        first, second = self.workdir / "events.encdbdb", self.workdir / "events-2.encdbdb"
        start = time.perf_counter()
        system.save(first)
        save_s = time.perf_counter() - start
        fresh = deploy_inproc(self.seed)
        try:
            start = time.perf_counter()
            fresh.server.load(first)
            load_s = time.perf_counter() - start
            for name in fresh.server.table_names():
                fresh.proxy.register_schema(name, list(fresh.server.table_specs(name)))
            timed_op(fresh.execute, probe, phase)
            fresh.save(second)
        finally:
            fresh.close()
        phase.attempted += 1
        if first.read_bytes() != second.read_bytes():
            phase.failed += 1
            phase.errors.append("reloaded database does not save byte-for-byte")
        size = first.stat().st_size
        return phase, {
            "save_ms": save_s * 1e3,
            "load_ms": load_s * 1e3,
            "bytes": size,
            "bytes_per_row": size / live_rows,
        }

    def measure(self, system) -> dict[str, float]:
        budget, reported, _ = spec.PHASES[self.name]["rounds"]
        budget *= self.seconds
        if self.smoke:
            reported = 2
        phases: dict[str, PhaseResult] = {}
        extra: dict[str, PhaseResult] = {}
        started = time.perf_counter()
        done = 0
        while done < len(self.rounds) and (
            done < reported or time.perf_counter() - started < budget
        ):
            self.run_round(system, self.rounds[done], phases if done < reported else extra)
            done += 1
        live_rows = self.rounds[done - 1][-1].expect
        reload_phase, storage = self.reload(system, live_rows, self.probes[done - 1])
        self.notes["rounds"] = done
        self.notes["storage"] = storage
        for phase in extra.values():
            phase.name += "_unreported"
        self.phases = [*phases.values(), *extra.values(), reload_phase]
        seek, plain, insert, merge = (
            phases["seek"], phases["plain"], phases["insert"], phases["merge"]
        )
        batch = self.rounds[0][0].expect
        # Round 1 inserts into a cold cache and an 8-partition layout; the
        # insert rate is taken over the steady rounds after it.
        steady = insert.latencies[len(insert.latencies) // reported :]
        return {
            "lat_p50_ms": seek.p50_ms(),
            "lat_tail_ms": self.tail([latency * 1e3 for latency in seek.latencies]),
            "ops_per_s": len(seek.latencies) / (seek.busy_s + insert.busy_s),
            "rows_per_s": batch * len(steady) / sum(steady),
            "alt_p50_ms": merge.p50_ms(),
            "enc_over_plain": seek.p50_ms() / plain.p50_ms(),
            "stored_bytes_per_row": storage["bytes_per_row"],
        }


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (RangeInproc, WideTcp, ServeTcp, WriteMerge)
}
