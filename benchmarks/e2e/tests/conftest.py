"""Tests of the benchmark's own machinery (not of the system under test).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q`` from the
repository root; they are not part of the tier-1 suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
