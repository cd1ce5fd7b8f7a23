"""Host facts the end-to-end benchmark still reads by name.

Builds run inline and the cluster router owns its one scatter executor, so
nothing is configured here. ``benchmarks/e2e/stats.py`` imports
:func:`configured_workers`, ``benchmarks/e2e/layers.py`` :func:`dispatch_stats`,
``benchmarks/e2e/run.py`` prints both via ``repro.bench.stats``; the names
stay until ROADMAP's benchmark-resolution step (iv) re-points those files.
"""

from __future__ import annotations

import os


def detected_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def configured_workers() -> int:
    """Threads a build runs on: one, the caller's."""
    return 1


def dispatch_stats() -> dict[str, dict]:
    """Inline-vs-pool decisions taken: none, there is no pool to choose."""
    return {}
