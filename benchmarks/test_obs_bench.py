"""Observability overhead benchmark (BENCH_engine.json section).

The tracing layer's contract is that a *disabled* tracer costs the engine
one truthiness check per phase — never per-edge work.  An A/B timing of
the loop with ``tracer=None`` against the loop with the disabled
:data:`~repro.obs.span.NOOP_TRACER` cannot see a cost that small: the two
differ by a few attribute reads per iteration, far below the run-to-run
noise of a millisecond iteration.  So the bench measures the cost
directly, as the offload bench does: it records every attribute read and
call one engine iteration makes on the tracer, times that many operations
against ``NOOP_TRACER`` (min-of-N), and divides by the untraced iteration
(min-of-N).

An enabled tracer's cost is also recorded (informational, an A/B timing)
so the price of ``--trace-out`` stays visible in BENCH_engine.json.
"""

from __future__ import annotations

import numpy as np
from conftest import min_of, write_bench

from repro.arch.engine import execute_iteration
from repro.graph.datasets import load_dataset
from repro.kernels.pagerank import PageRank
from repro.obs.span import NOOP_TRACER, Tracer
from repro.partition import HashPartitioner

ITERATIONS = 5
ROUNDS = 7
#: Replays of the recorded operations per timed round.
REPLAYS = 2000


class _RecordingTracer:
    """Stands in for ``NOOP_TRACER`` and logs what the engine asks of it."""

    def __init__(self):
        self.ops = []

    def __getattr__(self, name):
        value = getattr(NOOP_TRACER, name)
        if not callable(value):
            self.ops.append((name, None, None))
            return value

        def call(*args, **kwargs):
            self.ops.append((name, args, kwargs))
            return value(*args, **kwargs)

        return call


def _run_iterations(graph, assignment, tracer):
    kernel = PageRank()
    state = kernel.initial_state(graph)
    for _ in range(ITERATIONS):
        execute_iteration(kernel, state, assignment, tracer=tracer)
    return state


def _replay(ops):
    """Perform the recorded operations REPLAYS times against NOOP_TRACER."""
    for _ in range(REPLAYS):
        for name, args, kwargs in ops:
            value = getattr(NOOP_TRACER, name)
            if args is not None:
                value(*args, **kwargs)


def test_noop_tracer_overhead():
    """What a disabled tracer costs one engine iteration, against its row."""
    graph, _ = load_dataset("livejournal-sim", tier="small", seed=7)
    assignment = HashPartitioner().partition(graph, 8, seed=7)

    # Identical numerics on every path first (anything else disqualifies
    # the measurement), and the log of what the disabled tracer is sent.
    recorder = _RecordingTracer()
    untraced_state = _run_iterations(graph, assignment, None)
    recorded_state = _run_iterations(graph, assignment, recorder)
    np.testing.assert_array_equal(
        untraced_state.prop("rank"), recorded_state.prop("rank")
    )

    untraced_s, _ = min_of(
        lambda: _run_iterations(graph, assignment, None), ROUNDS
    )
    enabled_s, _ = min_of(
        lambda: _run_iterations(graph, assignment, Tracer()), ROUNDS
    )
    ops_s = min_of(lambda: _replay(recorder.ops), ROUNDS)[0] / REPLAYS
    iteration_s = untraced_s / ITERATIONS
    noop_per_iteration_s = ops_s / ITERATIONS
    write_bench(
        "BENCH_engine.json",
        "noop_tracer_overhead",
        {
            "workload": "pagerank/livejournal-sim/small",
            "partitions": 8,
            "iterations": ITERATIONS,
            "rounds": ROUNDS,
            "tracer_ops_per_iteration": len(recorder.ops) / ITERATIONS,
            "noop_seconds_per_iteration": noop_per_iteration_s,
            "untraced_seconds_per_iteration": iteration_s,
            "overhead_pct": 100.0 * noop_per_iteration_s / iteration_s,
            "enabled_seconds": enabled_s,
            "untraced_seconds": untraced_s,
            "enabled_overhead_pct": 100.0 * (enabled_s - untraced_s) / untraced_s,
        },
    )
