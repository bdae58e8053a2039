#!/usr/bin/env python3
"""The perf gate: every benchmark bar, one row each, in one table.

Each row names a BENCH file under ``benchmarks/out/``, a dotted metric
path into it, a comparison and a bound.  A row with a ``baseline`` bounds
the metric by a fraction of the same metric in that file under
``benchmarks/baseline/``; a row with ``only_if`` applies only while
another metric of the same file is at least a minimum (the sweep's
two-worker speedup needs two cores to be expressible).

The benches write their sections through ``benchmarks/conftest.py``'s
``write_bench``, which holds each fresh section to its rows here, so a bar
is written once and checked both inside its bench and over the whole set::

    python benchmarks/check_regression.py

prints one line per row and exits 0 when every row passes, 1 when a row
fails and 2 when a file, section or metric is missing.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
BASELINE_DIR = BENCH_DIR / "baseline"

OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
       "==": operator.eq}


@dataclass(frozen=True)
class Row:
    file: str
    metric: str
    op: str
    bound: Union[float, bool]
    #: file under benchmarks/baseline/; ``bound`` is then a fraction of it
    baseline: Optional[str] = None
    #: ``(metric, minimum)``: the row applies only when that metric is >= minimum
    only_if: Optional[Tuple[str, float]] = None

    @property
    def section(self) -> str:
        return self.metric.split(".", 1)[0]


ROWS = (
    # Execute-once engine (test_micro_bench.py, test_obs_bench.py).
    Row("BENCH_engine.json", "trace_replay_vs_reexecute.speedup", ">=", 2.5),
    Row("BENCH_engine.json", "cached_vs_uncached_profile.speedup", ">=", 2.0),
    Row("BENCH_engine.json", "structural_profile_fast_vs_oracle.speedup", ">=", 3.0),
    Row("BENCH_engine.json", "profile_throughput_medium.speedup", ">=", 0.8,
        baseline="BENCH_engine.medium.json"),
    Row("BENCH_engine.json", "noop_tracer_overhead.overhead_pct", "<=", 2.0),
    # Adaptive offload controller (test_offload_bench.py).
    Row("BENCH_offload.json", "adaptive_policy_overhead.overhead_pct", "<=", 2.0),
    # Setup path (test_partition_bench.py), at the largest scale.
    Row("BENCH_partition.json", "ldg.medium.speedup", ">=", 3.0),
    Row("BENCH_partition.json", "bfs_grow.medium.speedup", ">=", 3.0),
    Row("BENCH_partition.json", "csr_build.medium.speedup", ">=", 3.0),
    Row("BENCH_partition.json", "mirror_build.medium.speedup", ">=", 5.0),
    Row("BENCH_partition.json", "dataset_generation.medium.speedup", ">=", 5.0),
    Row("BENCH_partition.json", "sweep_setup.speedup", ">=", 5.0),
    # Serving daemon (test_serve_bench.py).
    Row("BENCH_serve.json", "serve_throughput.mid_speedup_vs_cold", ">=", 5.0),
    Row("BENCH_serve.json", "serve_overload.shed_demonstrated", "==", True),
    Row("BENCH_serve.json", "serve_overload.client_errors", "==", 0),
    Row("BENCH_serve.json", "serve_overload.server_errors", "==", 0),
    Row("BENCH_serve.json", "serve_overload.wall_seconds", "<", 120.0),
    # Distributed sweep (test_sweep_bench.py).
    Row("BENCH_sweep.json", "remote_scaling_medium.ledger_identical", "==", True),
    Row("BENCH_sweep.json", "remote_scaling_medium.speedup_2w", ">=", 1.6,
        only_if=("remote_scaling_medium.cores", 2)),
    # Write-ahead journal (test_resilience_bench.py).
    Row("BENCH_resilience.json", "journal_overhead.overhead_pct", "<=", 2.0),
    Row("BENCH_resilience.json", "resume_replay.speedup", ">", 5.0),
)


class Missing(Exception):
    """A row's file, section or metric is absent."""


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise Missing(f"{path.name} not found in {path.parent}") from None


def _lookup(doc: dict, metric: str, name: str):
    value = doc
    for key in metric.split("."):
        if not isinstance(value, dict) or key not in value:
            raise Missing(f"{name}: {metric} not found")
        value = value[key]
    return value


def _fmt(value) -> str:
    return str(value) if isinstance(value, bool) else f"{value:g}"


def check(row: Row, out_dir: Path = OUT_DIR) -> Tuple[str, str]:
    """``(status, line)`` for one row; status is ``ok``, ``FAIL`` or ``skip``.

    Raises :class:`Missing` when the row cannot be resolved.
    """
    doc = _load(out_dir / row.file)
    value = _lookup(doc, row.metric, row.file)
    bound, note = row.bound, ""
    if row.baseline is not None:
        base = _lookup(_load(BASELINE_DIR / row.baseline), row.metric, row.baseline)
        bound, note = row.bound * base, f", {row.bound:.0%} of baseline {base:g}"
    line = f"{row.file} {row.metric} = {_fmt(value)} ({row.op} {_fmt(bound)}{note})"
    if row.only_if is not None:
        metric, minimum = row.only_if
        actual = _lookup(doc, metric, row.file)
        if actual < minimum:
            return "skip", f"{line}; exempt while {metric} = {actual:g} < {minimum:g}"
    return ("ok" if OPS[row.op](value, bound) else "FAIL"), line


def assert_section(file: str, section: str, out_dir: Path = OUT_DIR) -> None:
    """Raise AssertionError naming every row of ``file``/``section`` that fails."""
    failed = []
    for row in ROWS:
        if row.file == file and row.section == section:
            status, line = check(row, out_dir)
            if status == "FAIL":
                failed.append(line)
    assert not failed, "bar missed: " + "; ".join(failed)


def main(out_dir: Path = OUT_DIR) -> int:
    code = 0
    for row in ROWS:
        try:
            status, line = check(row, out_dir)
        except Missing as exc:
            status, line, code = "MISSING", str(exc), 2
        if status == "FAIL" and code == 0:
            code = 1
        print(f"{status:<7} {line}")
    return code


if __name__ == "__main__":
    sys.exit(main())
