"""Percentile and envelope rules, in one place.

Every latency figure the benchmark prints goes through :func:`percentile`,
which refuses to report a percentile the sample cannot support, and every
output file carries :func:`envelope`, so two numbers are only ever compared
when the host facts that shaped them are on the page next to them.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it (choosing-metrics §1): a p99 therefore needs 1 000 samples, a p95 200.
MIN_SAMPLES_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``.

    Tail percentiles (p > 50) raise :class:`UnsupportedPercentile` unless at
    least :data:`MIN_SAMPLES_BEYOND` samples lie beyond the returned rank —
    a p99 on fewer than 1 000 samples is an error, not a number.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    n = len(samples)
    if n == 0:
        raise UnsupportedPercentile("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if p > 50 and n - rank < MIN_SAMPLES_BEYOND:
        raise UnsupportedPercentile(
            f"p{p:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return sorted(samples)[rank - 1]


def highest_supported_percentile(
    n: int, candidates: Sequence[float] = (99, 95, 90)
) -> float:
    """The highest of ``candidates`` that ``n`` samples support (else 50)."""
    for p in candidates:
        if n - math.ceil(p / 100.0 * n) >= MIN_SAMPLES_BEYOND:
            return p
    return 50


def quartiles(values: Sequence[float]) -> dict:
    """Median, quartiles and the contract's spread (IQR / median)."""
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def git_sha(root: Path) -> str | None:
    """``HEAD`` of the checkout, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def envelope(root: Path, *, seed: int) -> dict:
    """Host and build facts every benchmark output carries."""
    import numpy

    from repro.crypto.pae import default_pae
    from repro.runtime import configured_workers

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pae_backend": type(default_pae()).__name__,
        "configured_workers": configured_workers(),
        "seed": seed,
        "host": platform.platform(),
    }
