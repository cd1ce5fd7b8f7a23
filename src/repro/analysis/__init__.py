"""Trust-boundary & concurrency linter for the EncDBDB reproduction.

AST-based static analysis plus a runtime race detector, built around the
declarative trust map in :mod:`repro.analysis.trustmap`:

- :mod:`repro.analysis.boundary` — untrusted code reaches enclave state
  only through the registered ecall surface; never names key material.
- :mod:`repro.analysis.cryptolint` — DRBG-only randomness in deterministic
  build paths, no PAE bypass, no plaintext types near the wire.
- :mod:`repro.analysis.locks` — ``# guarded-by:`` lock-discipline checking.
- :mod:`repro.analysis.racecheck` — runtime ``__setattr__`` instrumentation
  enforcing the same annotations under real thread hammers.

Run ``python -m repro.analysis`` (optionally ``--format json``) to lint the
source tree; suppressions require a written justification (see
:mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

from repro.analysis.engine import (
    Report,
    analyze_file,
    analyze_paths,
    analyze_source,
    module_name_for,
)
from repro.analysis.findings import ALL_RULES, FileReport, Finding
from repro.analysis.racecheck import RaceDetector, RaceReport, RaceViolation
from repro.analysis.suppressions import parse_suppressions
from repro.analysis.trustmap import MODULE_TRUST, trust_level

__all__ = [
    "ALL_RULES",
    "FileReport",
    "Finding",
    "MODULE_TRUST",
    "RaceDetector",
    "RaceReport",
    "RaceViolation",
    "Report",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "module_name_for",
    "parse_suppressions",
    "trust_level",
]
