"""Run the layered end-to-end benchmark.

One workload, as the benchmark contract drives it (last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload wide_tcp --seed 7 --seconds 12 --trace 0

Everything, each workload in a fresh interpreter, every metric printed by
name with its unit, one JSON written under ``benchmarks/e2e/out/``::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 2026           # end to end
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 2026 --trace   # per-layer pass

``--smoke`` shrinks everything to exercise the plumbing only. Exits non-zero
on any failed operation or oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _require_program() -> None:
    """The benchmark measures ``src/repro``; without it there is nothing to run."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        raise SystemExit(2)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this process; returns the detailed result."""
    from benchmarks.e2e import spec
    from benchmarks.e2e.harness import median_setup, peak_rss_mb
    from benchmarks.e2e.stats import envelope
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.bench.stats import BenchStats

    if smoke:
        seconds = min(seconds, spec.SMOKE_SECONDS)
    workload = WORKLOADS[name](seed, seconds=seconds, smoke=smoke)
    started = time.perf_counter()
    try:
        workload.generate()
        datagen_s = time.perf_counter() - started
        if trace:
            from benchmarks.e2e.layers import per_layer_pass

            metrics = per_layer_pass(workload)
            setup_times: list[float] = []
        else:
            deployment, setup_s, setup_times = median_setup(
                workload.build, workload.teardown, 1 if smoke else spec.SETUP_REPEATS
            )
            try:
                metrics = workload.measure(deployment)
            finally:
                workload.teardown(deployment)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.cleanup()
    table = spec.PER_LAYER if trace else spec.END_TO_END
    units = {row[0]: row[1] for row in table}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"{name} did not report {sorted(missing)}")
    attempted = sum(phase.attempted for phase in workload.phases)
    failed = sum(phase.failed for phase in workload.phases)
    return {
        "workload": name,
        "mode": "per_layer" if trace else "end_to_end",
        "smoke": smoke,
        "envelope": envelope(ROOT, seed=seed),
        "seconds": seconds,
        "rows": workload.rows,
        "datagen_s": datagen_s,
        "setup_times_s": setup_times,
        "wall_s": time.perf_counter() - started,
        "phases": {phase.name: phase.counts() for phase in workload.phases},
        "notes": workload.notes,
        # Cores, worker knob and this process's serial/parallel scan
        # decisions: which way adaptive dispatch settled explains an odd run.
        "runtime": BenchStats.capture().to_dict(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
        # Measured too, but not contract metrics (too unsteady to gate on).
        "ungated": {key: value for key, value in metrics.items() if key not in units},
    }


def _detail_path(name: str, seed: int, trace: bool) -> Path:
    from benchmarks.e2e import spec

    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return spec.OUT_DIR / f"{name}-seed{seed}-{'layers' if trace else 'e2e'}.json"


def _print_result(result: dict) -> None:
    print(f"== {result['workload']} ({result['mode']}, seed {result['envelope']['seed']}, "
          f"{result['rows']} rows, datagen {result['datagen_s']:.2f} s, "
          f"wall {result['wall_s']:.1f} s)")
    for phase, counts in result["phases"].items():
        print(f"   phase {phase:<13} attempted {counts['attempted']:>6}  "
              f"succeeded {counts['succeeded']:>6}  failed {counts['failed']:>3}  "
              f"samples {counts['samples']:>6}  wall {counts['wall_s']:.2f} s")
        for error in counts["errors"]:
            print(f"      ! {error}")
    for key, metric in result["metrics"].items():
        print(f"   {key:<40} {metric['value']:>16.4f} {metric['unit']}")
    for key, value in result["ungated"].items():
        print(f"   {key:<40} {value:>16.4f} (measured, not gated)")


def single(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _detail_path(args.workload, args.seed, bool(args.trace)).write_text(
        json.dumps(result, indent=1, default=str)
    )
    if args.smoke:
        print("SMOKE — not comparable")
    _print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def everything(args) -> int:
    """Each workload in a fresh interpreter; one table, one JSON."""
    from benchmarks.e2e import spec
    from benchmarks.e2e.stats import envelope

    names = list(spec.WORKLOADS)
    results, status = {}, 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(bool(args.trace))),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        # The child's table, without its machine-readable last line.
        print("\n".join(child.stdout.splitlines()[:-1]))
        if child.returncode != 0:
            status = 1
            sys.stdout.write(child.stderr[-4000:])
        detail = _detail_path(name, args.seed, bool(args.trace))
        if detail.is_file():
            results[name] = json.loads(detail.read_text())
    mode = "layers" if args.trace else "e2e"
    out = spec.OUT_DIR / f"{mode}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(
        json.dumps({"envelope": envelope(ROOT, seed=args.seed), "workloads": results}, indent=1)
    )
    print(f"wrote {out.relative_to(ROOT)}")
    if args.smoke:
        print("SMOKE — not comparable")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0,
        help="run the per-layer pass instead of the end-to-end pass",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: plumbing check only")
    parser.add_argument(
        "--print-benchmark-json", action="store_true",
        help="print BENCHMARK.json as derived from spec.py and exit",
    )
    args = parser.parse_args(argv)
    _require_program()
    from benchmarks.e2e import spec

    if args.print_benchmark_json:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    if args.workload is not None:
        if args.workload not in spec.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {list(spec.WORKLOADS)}")
        return single(args)
    return everything(args)


if __name__ == "__main__":
    raise SystemExit(main())
