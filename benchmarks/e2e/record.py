"""Record repeat runs of the benchmark and check them against its bounds.

Runs the contract command (one fresh interpreter per run) for named *sets* of
seeds, interleaving the sets so that host drift hits them alike, and writes
every run plus, per set x workload x metric, the median, the quartiles and
the spread (IQR / median, as ``statistics.quantiles(values, n=4)`` gives
them). Two checks are printed and stored:

- each spread (except ``setup_s``'s) against the metric's bound, and
- for every pair of sets, how much worse one median is than the other,
  against the same bound.

The seed-state record under ``baseline/`` was produced with::

    python3 benchmarks/e2e/record.py --set a:2026,2026,2026 --set b:2026,2026,2026 \\
        --set c:7,7,7 --set s1:1,2,3,4,5,6,7,8,9,10 --set s2:11,12,13,14,15,16,17,18,19,20 \\
        --traced 2026 --out benchmarks/e2e/baseline/seed-<sha>.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.stats import envelope, quartiles  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace),
    ]
    started = time.perf_counter()
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{child.stdout[-2000:]}\n{child.stderr[-2000:]}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def worse_by(reference: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``reference``, as a share of it."""
    if reference == 0:
        return 0.0
    change = (value - reference) / abs(reference)
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", default=[], metavar="NAME:SEED,SEED,...")
    parser.add_argument("--traced", type=int, metavar="SEED", help="also one per-layer run each")
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sets = {}
    for item in args.set:
        name, _, seeds = item.partition(":")
        sets[name] = [int(seed) for seed in seeds.split(",")]
    workloads = args.workload or list(spec.WORKLOADS)
    runs: dict[str, dict[str, list]] = {name: {w: [] for w in workloads} for name in sets}
    # Interleave: first seed of every set, then the second of every set, ...
    for position in itertools.count():
        pending = [(name, seeds[position]) for name, seeds in sets.items() if position < len(seeds)]
        if not pending:
            break
        for name, seed in pending:
            for workload in workloads:
                result = run_once(workload, seed, 0)
                runs[name][workload].append({"seed": seed, **result})
                print(f"{name} {workload} seed {seed}: {result['wall_s']:.1f} s "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
    bounds = {name: (better, bound) for name, _, better, bound in spec.END_TO_END}
    summary: dict = {}
    verdict = True
    for name, per_workload in runs.items():
        for workload, results in per_workload.items():
            for metric, (better, bound) in bounds.items():
                values = [run["metrics"][metric]["value"] for run in results]
                entry = quartiles(values)
                entry["values"] = values
                entry["bound"] = bound
                distinct_seeds = len({run["seed"] for run in results}) > 1
                entry["spread_ok"] = metric == "setup_s" or entry["spread"] <= bound
                verdict &= entry["spread_ok"]
                summary.setdefault(workload, {}).setdefault(metric, {})[name] = entry
                flag = "" if entry["spread_ok"] else "  <-- spread exceeds bound"
                third = "" if entry["spread"] <= bound / 3 or metric == "setup_s" else " (> bound/3)"
                print(f"{workload:<13} {metric:<22} {name:<3} median {entry['median']:>12.4f} "
                      f"spread {entry['spread']:.3%} of bound {bound:.0%}{third}{flag}"
                      + ("" if distinct_seeds else "  [one seed]"))
    drift = []
    for first, second in itertools.combinations(sets, 2):
        for workload in workloads:
            for metric, (better, bound) in bounds.items():
                a = summary[workload][metric][first]["median"]
                b = summary[workload][metric][second]["median"]
                worst = max(worse_by(a, b, better), worse_by(b, a, better))
                ok = worst <= bound
                verdict &= ok
                drift.append({"sets": [first, second], "workload": workload, "metric": metric,
                              "worse_by": worst, "bound": bound, "ok": ok})
                if not ok:
                    print(f"DRIFT {workload} {metric}: sets {first}/{second} differ by "
                          f"{worst:.1%} > bound {bound:.0%}")
    traced = {}
    if args.traced is not None:
        for workload in workloads:
            traced[workload] = run_once(workload, args.traced, 1)
            print(f"traced {workload}: {traced[workload]['wall_s']:.1f} s", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "envelope": envelope(ROOT, seed=0),
        "run_seconds": spec.RUN_SECONDS,
        "sets": sets,
        "summary": summary,
        "set_drift": drift,
        "within_bounds": verdict,
        "runs": runs,
        "traced": traced,
    }, indent=1))
    print(f"wrote {args.out}; within bounds: {verdict}")
    return 0 if verdict else 1


if __name__ == "__main__":
    raise SystemExit(main())
