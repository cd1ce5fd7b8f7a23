"""Host context captured alongside benchmark numbers (PR 6).

A timing without the host it was measured on is unreadable.
:class:`BenchStats` bundles the facts every ``BENCH_*.json`` payload
carries: detected cores, plus the ``workers`` and ``dispatch`` fields whose
values are fixed (``1`` and ``{}``) now that builds and scans run in the
thread that calls them — the shape stays because ``benchmarks/e2e/run.py``
prints it (see :mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime import configured_workers, detected_cores, dispatch_stats

__all__ = ["BenchStats"]


@dataclass(frozen=True)
class BenchStats:
    """A snapshot of the host facts a benchmark ran under."""

    cores: int
    workers: int
    dispatch: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def capture(cls) -> "BenchStats":
        """Snapshot the current host facts."""
        return cls(
            cores=detected_cores(),
            workers=configured_workers(),
            dispatch=dispatch_stats(),
        )

    def to_dict(self) -> dict:
        """JSON-ready shape for ``BENCH_*.json`` payloads."""
        return {
            "cores": self.cores,
            "workers": self.workers,
            "dispatch": self.dispatch,
        }
