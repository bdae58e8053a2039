"""Benchmark harness configuration.

Each benchmark regenerates one paper table/figure at the ``small`` tier
(the default reproduction scale), asserts the paper's qualitative shape,
and archives the rendered report under ``benchmarks/out/`` so a run leaves
the full set of regenerated tables behind.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Mapping, Tuple

import pytest

from check_regression import OUT_DIR, assert_section

#: Tier used by the figure/table benchmarks.
BENCH_TIER = "small"


def min_of(fn: Callable[[], Any], rounds: int = 3) -> Tuple[float, Any]:
    """Best-of-N wall time and the last result: robust against scheduler
    noise on shared CI."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def write_bench(file: str, section: str, payload: Mapping[str, Any]) -> None:
    """Merge ``payload`` as ``section`` of ``benchmarks/out/<file>``, then
    hold the section to its rows in the ``check_regression.py`` table."""
    path = OUT_DIR / file
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert_section(file, section)


@pytest.fixture(scope="session", autouse=True)
def bench_artifact_cache():
    """Share one artifact cache across the whole benchmark session.

    Every benchmark loading the same (dataset, tier, seed) graph hits the
    cache after the first generation, so the suite spends its time in the
    simulators rather than in dataset setup.  Runs honour an existing
    ``REPRO_CACHE_DIR``; otherwise the cache lives under ``benchmarks/out``.
    """
    from repro import cache as repro_cache

    active = repro_cache.get_cache()
    if active is None:
        cache_dir = OUT_DIR / "cache"
        OUT_DIR.mkdir(exist_ok=True)
        active = repro_cache.configure(cache_dir)
    yield active


@pytest.fixture(scope="session")
def archive():
    """Write one experiment's rendered report to benchmarks/out/."""

    def _archive(experiment_id: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{experiment_id}.txt").write_text(text)

    return _archive
