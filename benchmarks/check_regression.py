#!/usr/bin/env python3
"""Bench-regression gate: engine profiling throughput at the medium preset.

Compares the ``profile_throughput_medium`` section of a freshly generated
``benchmarks/out/BENCH_engine.json`` against the committed baseline and
fails (exit 1) when the throughput metric dropped more than 20%.

The gated metric is the fast path's *speedup over the sort-based oracle*,
not raw seconds: both sides of the ratio run on the same machine in the
same process, so the number is portable across runner hardware while still
collapsing to ~1x if the O(E) path ever regresses to sort-bound behaviour.
The committed baseline is deliberately conservative (below typically
measured values) so runner-to-runner noise does not trip the gate; a real
algorithmic regression overshoots 20% by an order of magnitude.

A second gate covers the observability layer: the ``noop_tracer_overhead``
section (benchmarks/test_obs_bench.py) must report a disabled-tracer
engine overhead of at most 2%.

A third gate covers the serving daemon: the ``serve_throughput`` section
of ``BENCH_serve.json`` (benchmarks/test_serve_bench.py) must report warm
serving at least 5x the cold path, and its ``serve_overload`` section
typed shedding with zero transport or server errors.

A fourth gate covers the distributed sweep: the ``remote_scaling_medium``
section of ``BENCH_sweep.json`` (benchmarks/test_sweep_bench.py) must
report ledger-identical outcomes across 1/2/4 workers and at least a
1.6x two-worker speedup — the speedup floor applies only on hosts with
two or more cores (single-core runners pass with a note).

A fifth gate covers the adaptive offload controller: the
``adaptive_policy_overhead`` section of ``BENCH_offload.json``
(benchmarks/test_offload_bench.py) must report a per-iteration decision
cycle costing at most 2% of the engine iteration it steers — the same
bar as the observability layer.

``--only`` selects which gates run: ``engine``, ``obs``, ``serve``,
``sweep``, and ``offload`` each require their section; the
default ``all`` requires the engine section and checks the others when
present.

Usage::

    python benchmarks/check_regression.py \\
        [--current benchmarks/out/BENCH_engine.json] \\
        [--baseline benchmarks/baseline/BENCH_engine.medium.json] \\
        [--only {all,engine,obs,serve,sweep,offload}]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SECTION = "profile_throughput_medium"
METRIC = "speedup"
MAX_DROP = 0.20

#: Optional gate: disabled-tracer engine overhead (benchmarks/test_obs_bench.py).
OBS_SECTION = "noop_tracer_overhead"
OBS_METRIC = "overhead_pct"
OBS_MAX_PCT = 2.0

#: Optional gate: serving daemon (benchmarks/test_serve_bench.py).
SERVE_THROUGHPUT_SECTION = "serve_throughput"
SERVE_THROUGHPUT_METRIC = "mid_speedup_vs_cold"
SERVE_MIN_SPEEDUP = 5.0
SERVE_OVERLOAD_SECTION = "serve_overload"

#: Optional gate: distributed sweep scaling (benchmarks/test_sweep_bench.py).
SWEEP_SECTION = "remote_scaling_medium"
SWEEP_METRIC = "speedup_2w"
SWEEP_MIN_SPEEDUP = 1.6

#: Optional gate: adaptive offload controller (benchmarks/test_offload_bench.py).
OFFLOAD_SECTION = "adaptive_policy_overhead"
OFFLOAD_METRIC = "overhead_pct"
OFFLOAD_MAX_PCT = 2.0

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        default=str(REPO_ROOT / "benchmarks" / "out" / "BENCH_engine.json"),
    )
    parser.add_argument(
        "--baseline",
        default=str(
            REPO_ROOT / "benchmarks" / "baseline" / "BENCH_engine.medium.json"
        ),
    )
    parser.add_argument(
        "--serve-current",
        default=str(REPO_ROOT / "benchmarks" / "out" / "BENCH_serve.json"),
    )
    parser.add_argument(
        "--sweep-current",
        default=str(REPO_ROOT / "benchmarks" / "out" / "BENCH_sweep.json"),
    )
    parser.add_argument(
        "--offload-current",
        default=str(REPO_ROOT / "benchmarks" / "out" / "BENCH_offload.json"),
    )
    parser.add_argument(
        "--only",
        choices=("all", "engine", "obs", "serve", "sweep", "offload"),
        default="all",
        help="which gates to enforce (default: engine required, obs/"
        "serve/sweep/offload checked when their sections are present)",
    )
    args = parser.parse_args(argv)

    if args.only == "serve":
        return _check_serve(args.serve_current, required=True)
    if args.only == "sweep":
        return _check_sweep(args.sweep_current, required=True)
    if args.only == "offload":
        return _check_offload(args.offload_current, required=True)

    try:
        current_doc = json.loads(Path(args.current).read_text())
    except FileNotFoundError:
        print(
            f"bench-regression: {args.current} missing — run the micro "
            "benches first (pytest benchmarks/test_micro_bench.py or "
            "benchmarks/test_obs_bench.py)",
            file=sys.stderr,
        )
        return 2

    if args.only in ("all", "engine"):
        baseline_doc = json.loads(Path(args.baseline).read_text())
        if SECTION not in current_doc:
            print(
                f"bench-regression: section {SECTION!r} missing from "
                f"{args.current}",
                file=sys.stderr,
            )
            return 2
        current = float(current_doc[SECTION][METRIC])
        baseline = float(baseline_doc[SECTION][METRIC])
        floor = baseline * (1.0 - MAX_DROP)

        print(
            f"bench-regression: {SECTION}.{METRIC} = {current:.2f} "
            f"(baseline {baseline:.2f}, floor {floor:.2f})"
        )
        if current < floor:
            drop = 100.0 * (1.0 - current / baseline)
            print(
                f"bench-regression: FAIL — throughput dropped {drop:.1f}% "
                f"(> {MAX_DROP:.0%}) vs the committed baseline",
                file=sys.stderr,
            )
            return 1

    if args.only == "obs" and OBS_SECTION not in current_doc:
        print(
            f"bench-regression: section {OBS_SECTION!r} missing from "
            f"{args.current} — run pytest benchmarks/test_obs_bench.py",
            file=sys.stderr,
        )
        return 2
    # With --only all the obs gate is advisory-by-presence: the engine
    # benches alone don't emit the section, so it is checked when there.
    if args.only in ("all", "obs") and OBS_SECTION in current_doc:
        overhead = float(current_doc[OBS_SECTION][OBS_METRIC])
        print(
            f"bench-regression: {OBS_SECTION}.{OBS_METRIC} = "
            f"{overhead:.2f}% (max {OBS_MAX_PCT:.0f}%)"
        )
        if overhead > OBS_MAX_PCT:
            print(
                f"bench-regression: FAIL — disabled-tracer overhead "
                f"{overhead:.2f}% exceeds {OBS_MAX_PCT:.0f}%",
                file=sys.stderr,
            )
            return 1

    # Like the obs gate, the serve gate is advisory-by-presence under
    # --only all: its bench writes a separate file, checked when there.
    if args.only == "all" and Path(args.serve_current).exists():
        code = _check_serve(args.serve_current, required=False)
        if code:
            return code

    # And so does the distributed-sweep scaling gate.
    if args.only == "all" and Path(args.sweep_current).exists():
        code = _check_sweep(args.sweep_current, required=False)
        if code:
            return code

    # And the adaptive offload-controller gate.
    if args.only == "all" and Path(args.offload_current).exists():
        code = _check_offload(args.offload_current, required=False)
        if code:
            return code

    print("bench-regression: OK")
    return 0


def _check_serve(path: str, *, required: bool) -> int:
    """Gate the serving daemon's numbers recorded in BENCH_serve.json.

    Two conditions: warm serving at the middle concurrency tier must be
    at least 5x the naive cold path (coalescing + warm pool + result
    cache doing their job), and the overload experiment must have
    demonstrated *typed* shedding with zero transport/server errors.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        print(
            f"bench-regression: {path} missing — run "
            "pytest benchmarks/test_serve_bench.py first",
            file=sys.stderr,
        )
        return 2
    if SERVE_THROUGHPUT_SECTION not in doc:
        print(
            f"bench-regression: section {SERVE_THROUGHPUT_SECTION!r} "
            f"missing from {path}",
            file=sys.stderr,
        )
        return 2
    speedup = float(doc[SERVE_THROUGHPUT_SECTION][SERVE_THROUGHPUT_METRIC])
    print(
        f"bench-regression: {SERVE_THROUGHPUT_SECTION}."
        f"{SERVE_THROUGHPUT_METRIC} = {speedup:.2f}x "
        f"(min {SERVE_MIN_SPEEDUP:.1f}x)"
    )
    if speedup < SERVE_MIN_SPEEDUP:
        print(
            f"bench-regression: FAIL — warm serving is only {speedup:.2f}x "
            f"the cold path (floor {SERVE_MIN_SPEEDUP:.1f}x)",
            file=sys.stderr,
        )
        return 1
    if SERVE_OVERLOAD_SECTION not in doc:
        print(
            f"bench-regression: section {SERVE_OVERLOAD_SECTION!r} missing "
            f"from {path}",
            file=sys.stderr,
        )
        return 2
    overload = doc[SERVE_OVERLOAD_SECTION]
    shed_ok = bool(overload.get("shed_demonstrated", False))
    errors = int(overload.get("client_errors", 0)) + int(
        overload.get("server_errors", 0)
    )
    print(
        f"bench-regression: {SERVE_OVERLOAD_SECTION}: "
        f"shed={overload.get('shed', 0)} "
        f"quota_rejected={overload.get('quota_rejected', 0)} "
        f"errors={errors}"
    )
    if not shed_ok or errors:
        print(
            "bench-regression: FAIL — overload must shed typed errors "
            f"(shed_demonstrated={shed_ok}, raw errors={errors})",
            file=sys.stderr,
        )
        return 1
    if required:
        print("bench-regression: OK")
    return 0


def _check_sweep(path: str, *, required: bool) -> int:
    """Gate the distributed sweep scaling recorded in BENCH_sweep.json.

    Two conditions: the 1/2/4-worker runs must have produced ledger-
    identical outcomes (a speedup that changes answers is a bug), and the
    two-worker speedup must clear its floor — but only on hosts with at
    least two cores, since compute-bound workers cannot scale past the
    physical core count; a single-core runner passes with a note.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        print(
            f"bench-regression: {path} missing — run "
            "pytest benchmarks/test_sweep_bench.py first",
            file=sys.stderr,
        )
        return 2
    if SWEEP_SECTION not in doc:
        print(
            f"bench-regression: section {SWEEP_SECTION!r} missing from "
            f"{path}",
            file=sys.stderr,
        )
        return 2
    section = doc[SWEEP_SECTION]
    if not section.get("ledger_identical", False):
        print(
            "bench-regression: FAIL — remote sweep outcomes diverged "
            "from the single-host ledgers",
            file=sys.stderr,
        )
        return 1
    if int(section.get("cores", 1)) < 2:
        print(
            "bench-regression: sweep gate skipped — single-core runner, "
            "multi-worker speedup is not expressible (OK; "
            f"recorded {SWEEP_METRIC}="
            f"{float(section.get(SWEEP_METRIC, 0.0)):.2f}x)"
        )
        return 0
    speedup = float(section[SWEEP_METRIC])
    print(
        f"bench-regression: {SWEEP_SECTION}.{SWEEP_METRIC} = "
        f"{speedup:.2f}x (min {SWEEP_MIN_SPEEDUP:.1f}x)"
    )
    if speedup < SWEEP_MIN_SPEEDUP:
        print(
            f"bench-regression: FAIL — 2-worker sweep speedup "
            f"{speedup:.2f}x below the {SWEEP_MIN_SPEEDUP:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    if required:
        print("bench-regression: OK")
    return 0


def _check_offload(path: str, *, required: bool) -> int:
    """Gate the adaptive controller's overhead recorded in BENCH_offload.json.

    The per-iteration decide + calibrate cycle must cost at most 2% of
    the engine iteration it steers — per-iteration placement decisions
    are only viable if making them is effectively free.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        print(
            f"bench-regression: {path} missing — run "
            "pytest benchmarks/test_offload_bench.py first",
            file=sys.stderr,
        )
        return 2
    if OFFLOAD_SECTION not in doc:
        print(
            f"bench-regression: section {OFFLOAD_SECTION!r} missing from "
            f"{path}",
            file=sys.stderr,
        )
        return 2
    overhead = float(doc[OFFLOAD_SECTION][OFFLOAD_METRIC])
    print(
        f"bench-regression: {OFFLOAD_SECTION}.{OFFLOAD_METRIC} = "
        f"{overhead:.2f}% (max {OFFLOAD_MAX_PCT:.0f}%)"
    )
    if overhead > OFFLOAD_MAX_PCT:
        print(
            f"bench-regression: FAIL — adaptive controller overhead "
            f"{overhead:.2f}% exceeds {OFFLOAD_MAX_PCT:.0f}%",
            file=sys.stderr,
        )
        return 1
    if required:
        print("bench-regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
