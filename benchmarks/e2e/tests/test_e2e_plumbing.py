"""Subprocess hygiene, the smoke run, the oracle's teeth, the contract file.

These start real server children and run every workload at ``--smoke`` size
(a few seconds each); they exist to exercise the plumbing, not to measure.
"""

import json
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import harness, run, spec

ROOT = Path(__file__).resolve().parents[3]


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert committed["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in committed["workloads"]] == list(spec.WORKLOADS)
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert len(committed["per_layer"]) <= 128 and len(committed["end_to_end"]) <= 16
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in committed["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])


def test_server_child_is_started_reaped_and_checked(tmp_path):
    server = harness.ServerProcess(tmp_path).start()
    port = server.port
    with socket.create_connection(("127.0.0.1", port), timeout=2):
        pass
    pid = server._proc.pid
    server.stop()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)
    with pytest.raises(ProcessLookupError):  # reaped: the pid is gone
        import os

        os.kill(pid, 0)
    server.stop()  # idempotent


def test_a_server_that_dies_reports_its_stderr(tmp_path, monkeypatch):
    monkeypatch.setattr(harness.spec, "ROOT", tmp_path)  # no src/ there: import fails
    with pytest.raises(harness.BenchmarkError) as failure:
        harness.ServerProcess(tmp_path).start()
    assert "No module named" in str(failure.value)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_meets_the_contract(workload, trace, capsys):
    status = run.main(["--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert status == 0
    assert "SMOKE — not comparable" in out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [row[0] for row in table]
    for row in table:
        assert result["metrics"][row[0]]["unit"] == row[1]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_a_wrong_expectation_fails_the_run(monkeypatch, capsys):
    from benchmarks.e2e.oracle import RangeOracle

    honest = RangeOracle.expect
    monkeypatch.setattr(
        RangeOracle, "expect", lambda self, low, high: (honest(self, low, high)[0] + 1, 0)
    )
    status = run.main(["--workload", "range_inproc", "--seed", "3", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "range_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert not child.stdout.strip().startswith("{")
