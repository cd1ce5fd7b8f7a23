"""Percentile and envelope rules."""

from pathlib import Path

import pytest

from benchmarks.e2e.stats import (
    UnsupportedPercentile,
    envelope,
    highest_supported_percentile,
    percentile,
    quartiles,
)

ROOT = Path(__file__).resolve().parents[3]


def test_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([5.0], 50) == 5.0
    assert percentile([3, 1, 2], 50) == 2


def test_tail_needs_ten_samples_beyond():
    with pytest.raises(UnsupportedPercentile):
        percentile(list(range(999)), 99)  # a p99 on < 1 000 samples is an error
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(UnsupportedPercentile):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == 189
    with pytest.raises(UnsupportedPercentile):
        percentile([], 50)


def test_highest_supported():
    assert highest_supported_percentile(1000) == 99
    assert highest_supported_percentile(999) == 95
    assert highest_supported_percentile(150) == 90
    assert highest_supported_percentile(50) == 50


def test_quartiles_match_the_contract_definition():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == {
        "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
    }


def test_envelope_names_what_shaped_the_numbers():
    facts = envelope(ROOT, seed=7)
    for key in ("git_sha", "nproc", "python", "numpy", "pae_backend",
                "configured_workers", "seed"):
        assert key in facts
    assert facts["seed"] == 7
    assert facts["pae_backend"] in ("LibraryPae", "PurePythonPae")
    assert facts["nproc"] >= 1
