"""Smoke test of the end-to-end benchmark (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

Runs every workload for one second, plain and traced, and checks the
contract of ``bench.py``: every declared metric present with its unit and
finite, no failed op, no process left behind after the run, and a layer
split that sums to the wall time.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import become_subreaper

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def adopts_orphans() -> bool:
    """Make this process a child subreaper: what a run orphans lands here."""
    return become_subreaper()


def _children() -> list:
    """This process's children, zombies included."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(f"{entry.name} {stat[:80]}")
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace, adopts_orphans):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    if adopts_orphans:
        assert not _children(), "the run left processes behind"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stderr[-3000:]
    assert result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]

    if trace:
        report = json.loads(
            (HERE / "out" / f"layers-{workload}.json").read_text()
        )
        wall, split = report["wall_s"], report["split"]
        assert abs(sum(split.values()) - wall) <= 0.01 * wall
        assert all(v >= 0 for k, v in split.items() if k != "unattributed"), split
        assert split["unattributed"] >= -0.01 * wall, split


def test_refuses_without_the_program(tmp_path):
    """Given only the benchmark's own files, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp", "out"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
