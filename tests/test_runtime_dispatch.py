"""The build fan-out rule and the host-clamped worker default."""

from __future__ import annotations

import logging

import pytest

from repro import runtime
from repro.runtime import (
    DEFAULT_WORKERS,
    WORKERS_ENV,
    DispatchDecision,
    configured_workers,
    detected_cores,
    dispatch_decision,
    dispatch_stats,
    reset_dispatch_stats,
)


@pytest.fixture(autouse=True)
def _clean_dispatch_state():
    reset_dispatch_stats()
    yield
    reset_dispatch_stats()


def test_single_worker_goes_serial(monkeypatch):
    monkeypatch.setattr(runtime, "detected_cores", lambda: 8)
    decision = dispatch_decision("t", requested_workers=1)
    assert decision == DispatchDecision(False, 1, "a single worker was requested")


def test_single_core_host_goes_serial(monkeypatch):
    monkeypatch.setattr(runtime, "detected_cores", lambda: 1)
    decision = dispatch_decision("t", requested_workers=4)
    assert not decision.parallel and "threads cannot overlap" in decision.reason


def test_parallel_workers_clamped_to_cores(monkeypatch):
    monkeypatch.setattr(runtime, "detected_cores", lambda: 2)
    decision = dispatch_decision("t", requested_workers=16)
    assert decision.parallel and decision.workers == 2


def test_dispatch_log_counts(monkeypatch):
    monkeypatch.setattr(runtime, "detected_cores", lambda: 4)
    dispatch_decision("build-x", requested_workers=1)
    dispatch_decision("build-x", requested_workers=3)
    assert dispatch_stats() == {
        "build-x": {
            "serial": 1,
            "parallel": 1,
            "last": {
                "parallel": True,
                "workers": 3,
                "reason": "4 CPU core(s) available",
            },
        }
    }
    reset_dispatch_stats()
    assert dispatch_stats() == {}


def test_default_workers_clamped_to_detected_cores(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(runtime, "detected_cores", lambda: 2)
    assert configured_workers() == min(DEFAULT_WORKERS, 2)
    monkeypatch.setattr(runtime, "detected_cores", lambda: 64)
    assert configured_workers() == DEFAULT_WORKERS  # never above the default
    # Explicit intent — the environment — is not clamped.
    monkeypatch.setenv(WORKERS_ENV, "7")
    monkeypatch.setattr(runtime, "detected_cores", lambda: 1)
    assert configured_workers() == 7


def test_clamp_is_logged_exactly_once(monkeypatch, caplog):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(runtime, "detected_cores", lambda: 1)
    monkeypatch.setattr(runtime, "_clamp_logged", False)
    with caplog.at_level(logging.INFO, logger="repro.runtime"):
        assert configured_workers() == 1
        assert configured_workers() == 1
    clamp_lines = [r for r in caplog.records if "clamped" in r.getMessage()]
    assert len(clamp_lines) == 1
    assert WORKERS_ENV in clamp_lines[0].getMessage()


def test_detected_cores_is_positive():
    assert detected_cores() >= 1
