"""Host and dispatch context captured alongside benchmark numbers (PR 6).

A speedup ratio without the host it was measured on is unreadable: a
0.82x "parallel speedup" only makes sense next to ``cores: 1``.
:class:`BenchStats` bundles the facts every ``BENCH_*.json`` payload
should carry — detected cores, the configured build worker count, and the
per-kind serial/parallel decisions the runtime actually made during the
run — so regression guards can be conditioned on the host instead of
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime import configured_workers, detected_cores, dispatch_stats

__all__ = ["BenchStats"]


@dataclass(frozen=True)
class BenchStats:
    """A snapshot of the runtime's execution-strategy state."""

    cores: int
    workers: int
    dispatch: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def capture(cls) -> "BenchStats":
        """Snapshot the current host facts and dispatch log."""
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
