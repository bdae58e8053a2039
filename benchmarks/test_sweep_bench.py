"""Distributed sweep scaling benchmarks (BENCH_sweep.json).

The distributed scheduler's pitch is that a sweep is embarrassingly
parallel once the data plane is content-addressed: adding workers should
buy near-linear wall-clock speedup with bit-identical outcomes.  This
bench runs the same 24-task medium-tier sweep through ``RemoteScheduler``
with 1, 2, and 4 local ``repro-worker`` processes and records the
scaling curve.  Every run must produce the exact ledger set of a
single-host ``jobs=2`` run — a speedup that changes answers is a bug,
not a result.

The acceptance bar is >= 1.6x at two workers (gated via
``check_regression.py --only sweep``); four-worker scaling is recorded
as informational since CI core counts vary.  The speedup floor is only
enforced when the host has at least two cores — compute-bound workers cannot scale past
the physical core count, and a single-core runner records the curve
(and still asserts outcome identity) without failing the suite.

Workers share the benchmark session's artifact cache directory, so the
timed region measures dispatch + execution, not dataset generation —
the same steady state a long-lived cluster cache converges to.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import cache as repro_cache
from repro.experiments.remote import RemoteScheduler
from repro.experiments.sweep import SweepTask, run_sweep

TOKEN = "bench-sweep-token"
MIN_SPEEDUP_2W = 1.6

#: 24 near-uniform compute-bound tasks: pagerank at the medium tier runs
#: ~0.4s per task once max_iterations exceeds convergence (~130), so the
#: varying caps below change the task digests without changing the work.
TASKS = [
    SweepTask("livejournal-sim", "pagerank", parts, "medium", seed,
              max_iterations=cap)
    for seed in (3, 5, 7)
    for parts in (4, 8)
    for cap in (200, 220, 240, 260)
]


def _write_bench_sweep(bench_out_dir, section, payload):
    path = bench_out_dir / "BENCH_sweep.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class _Fleet:
    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        self.procs: list = []

    def spawn(self, host: str, port: int, count: int) -> None:
        env = dict(os.environ)
        env["REPRO_SWEEP_TOKEN"] = TOKEN
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for i in range(count):
            self.procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.experiments.worker",
                        f"{host}:{port}",
                        "--cache-dir",
                        str(self.cache_dir),
                        "--name",
                        f"bench-w{i}",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.STDOUT,
                )
            )

    def join(self) -> list:
        codes = [p.wait(timeout=120) for p in self.procs]
        self.procs = []
        return codes

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait(timeout=20)
        self.procs = []


def test_remote_worker_scaling(bench_out_dir):
    """1/2/4-worker scaling with bit-identical outcomes, >=1.6x at 2w."""
    cache = repro_cache.get_cache()
    assert cache is not None, "bench session cache must be configured"

    # Warm the shared cache (dataset generation happens once, here) and
    # pin the single-host answer every remote run must reproduce.
    local = run_sweep(TASKS, jobs=2)
    expected = [o.ledger_sha256 for o in local]
    assert all(o.ok for o in local)

    elapsed = {}
    for workers in (1, 2, 4):
        fleet = _Fleet(cache.root)
        try:
            sched = RemoteScheduler(
                token=TOKEN,
                min_workers=workers,
                worker_wait_s=120.0,
                cache=cache,
                on_ready=lambda h, p, n=workers, f=fleet: f.spawn(h, p, n),
            )
            start = time.perf_counter()
            outcomes = run_sweep(TASKS, scheduler=sched)
            elapsed[workers] = time.perf_counter() - start
            assert [o.ledger_sha256 for o in outcomes] == expected, (
                f"{workers}-worker sweep changed the outcomes"
            )
            assert all(o.ok and o.attempts == 1 for o in outcomes)
            assert fleet.join() == [0] * workers
        finally:
            fleet.kill()

    speedup_2w = elapsed[1] / elapsed[2]
    speedup_4w = elapsed[1] / elapsed[4]
    cores = os.cpu_count() or 1
    payload = {
        "tier": "medium",
        "tasks": len(TASKS),
        "cores": cores,
        "elapsed_1w_s": round(elapsed[1], 4),
        "elapsed_2w_s": round(elapsed[2], 4),
        "elapsed_4w_s": round(elapsed[4], 4),
        "speedup_2w": round(speedup_2w, 3),
        "speedup_4w": round(speedup_4w, 3),
        "ledger_identical": True,
        "min_speedup_2w": MIN_SPEEDUP_2W,
    }
    _write_bench_sweep(bench_out_dir, "remote_scaling_medium", payload)

    if cores < 2:
        return  # correctness asserted above; scaling needs real cores
    assert speedup_2w >= MIN_SPEEDUP_2W, (
        f"2-worker speedup {speedup_2w:.2f}x below the "
        f"{MIN_SPEEDUP_2W}x floor: {payload}"
    )
