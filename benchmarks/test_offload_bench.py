"""Adaptive offload-controller overhead benchmark (BENCH_offload.json).

The closed-loop controller's contract is that deciding placement at every
iteration boundary is effectively free next to the iteration itself: its
feature extraction and calibration are O(num_parts) numpy work, while an
iteration executes O(E) kernel numerics.  This bench measures both sides
— the per-iteration decision cycle the simulator runs (``decide`` over a
representative per-part outlook plus the ``observe`` feedback, which
calibrates both the occupancy counts and the byte correction) and the
engine iteration it rides on — and records their ratio, which its row in
``check_regression.py`` holds to the observability layer's bar.

The two sides are timed separately (min-of-N each) rather than as an
end-to-end A/B diff: the controller's true cost is tens of microseconds
per iteration, far below the run-to-run scheduler noise of a multi-
millisecond full run, so a subtraction of two noisy totals would gate on
the noise, not the controller.  The ratio of two min-of-N measurements is
stable and measures the same thing.

Policies move work placement, never numerics, so the comparison is only
meaningful if a policy swap leaves kernel output bit-identical — asserted
before any clock starts.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import write_bench

from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.datasets import load_dataset
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.runtime.offload import (
    AdaptiveOffloadPolicy,
    AlwaysOffload,
    IterationOutlook,
)

ITERATIONS = 10
ROUNDS = 7
DECISION_CALLS = 2000
PARTITIONS = 8


def _run(graph, graph_name, cfg, policy):
    sim = DisaggregatedNDPSimulator(cfg, policy=policy)
    return sim.run(
        graph,
        get_kernel("pagerank"),
        max_iterations=ITERATIONS,
        graph_name=graph_name,
        seed=7,
    )


def _decision_cycle_seconds(graph) -> float:
    """Min-of-N cost of one ``decide`` + ``observe`` cycle, in seconds.

    The outlook mirrors the bench workload's dense steady state (every
    vertex in the frontier, edge mass split across the memory nodes) —
    the controller's cost is O(num_parts) regardless, but the features
    should look like what the simulator actually feeds it.  The simulator
    builds a fresh outlook every iteration, so each timed cycle gets its
    own (built before the clock starts): an outlook's memoized estimates
    are never served across cycles.
    """
    kernel = get_kernel("pagerank")
    edges = np.full(PARTITIONS, graph.num_edges / PARTITIONS)
    frontier = np.full(PARTITIONS, graph.num_vertices / PARTITIONS)
    policy = AdaptiveOffloadPolicy()
    best = float("inf")
    for _ in range(ROUNDS):
        outlooks = [
            IterationOutlook(
                iteration=0,
                frontier_size=graph.num_vertices,
                edges_traversed=graph.num_edges,
                num_vertices=graph.num_vertices,
                num_parts=PARTITIONS,
                edges_per_part=edges,
                frontier_per_part=frontier,
            )
            for _ in range(DECISION_CALLS)
        ]
        start = time.perf_counter()
        for outlook in outlooks:
            mask = policy.decide(kernel, outlook)
            policy.observe(
                outlook,
                partial_pairs=graph.num_edges // 2,
                distinct_destinations=graph.num_vertices // 2,
                host_link_bytes=1.0e6,
                offloaded_mask=mask,
            )
        best = min(best, (time.perf_counter() - start) / DECISION_CALLS)
    return best


def _iteration_seconds(graph, graph_name, cfg) -> float:
    """Min-of-N engine cost per iteration under the static policy."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run(graph, graph_name, cfg, AlwaysOffload())
        best = min(best, (time.perf_counter() - start) / ITERATIONS)
    return best


def test_adaptive_policy_overhead():
    """Per-iteration adaptive decisions against the iteration they steer."""
    graph, ds = load_dataset("livejournal-sim", tier="medium", seed=7)
    cfg = SystemConfig(num_memory_nodes=PARTITIONS).with_options(
        enable_inc=True
    )

    # Identical numerics under either policy first (a policy that changed
    # results would not be measuring overhead).
    static_run = _run(graph, ds.name, cfg, AlwaysOffload())
    adaptive_run = _run(graph, ds.name, cfg, AdaptiveOffloadPolicy())
    np.testing.assert_array_equal(
        static_run.result_property(), adaptive_run.result_property()
    )

    decision_s = _decision_cycle_seconds(graph)
    iteration_s = _iteration_seconds(graph, ds.name, cfg)
    overhead_pct = 100.0 * decision_s / iteration_s
    write_bench(
        "BENCH_offload.json",
        "adaptive_policy_overhead",
        {
            "workload": "pagerank/livejournal-sim/medium",
            "partitions": PARTITIONS,
            "iterations": ITERATIONS,
            "rounds": ROUNDS,
            "decision_cycle_seconds": decision_s,
            "iteration_seconds": iteration_s,
            "overhead_pct": overhead_pct,
        },
    )
