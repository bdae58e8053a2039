"""Microbenchmarks of the core primitives (pytest-benchmark timing).

These time the substrate pieces the figure benches are built on — graph
generation, partitioning, one engine iteration — so performance
regressions in the hot paths are visible independent of the experiment
harness.  The execute-once benchmarks additionally emit machine-readable
numbers to ``benchmarks/out/BENCH_engine.json``.
"""

import numpy as np
import pytest
from conftest import min_of, write_bench

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.engine import (
    StructuralProfileCache,
    execute_iteration,
    frontier_structure,
)
from repro.arch.reference import frontier_structure_reference
from repro.arch.trace import record_trace
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.kernels.pagerank import PageRank
from repro.partition import HashPartitioner, MetisPartitioner
from repro.partition.base import PartitionAssignment
from repro.partition.mirrors import build_mirror_table
from repro.runtime.config import SystemConfig


@pytest.fixture(scope="module")
def lj_small():
    graph, _ = load_dataset("livejournal-sim", tier="small", seed=7)
    return graph


def test_rmat_generation(benchmark):
    graph = benchmark(lambda: rmat(13, 16, seed=1))
    assert graph.num_vertices == 8192


def test_hash_partition(benchmark, lj_small):
    assignment = benchmark(
        lambda: HashPartitioner().partition(lj_small, 32)
    )
    assert assignment.num_parts == 32


def test_metis_partition(benchmark, lj_small):
    assignment = benchmark.pedantic(
        lambda: MetisPartitioner().partition(lj_small, 8, seed=1),
        rounds=1,
        iterations=1,
    )
    assert assignment.num_parts == 8


def test_mirror_table_construction(benchmark, lj_small):
    parts = HashPartitioner().partition(lj_small, 32).parts
    # A fresh assignment per round: one object would serve every round
    # after the first from its cached pair pass.
    table = benchmark(
        lambda: build_mirror_table(lj_small, PartitionAssignment(parts, 32))
    )
    assert table.num_mirrors > 0


def test_engine_iteration_pagerank(benchmark, lj_small):
    kernel = PageRank()
    assignment = PartitionAssignment(
        np.arange(lj_small.num_vertices, dtype=np.int64) % 16, 16
    )

    def one_iteration():
        state = kernel.initial_state(lj_small)
        return execute_iteration(kernel, state, assignment)

    profile = benchmark(one_iteration)
    assert profile.edges_traversed == lj_small.num_edges


# --------------------------------------------------------------------------- #
# Execute-once engine benchmarks (BENCH_engine.json)
# --------------------------------------------------------------------------- #

def test_trace_replay_vs_reexecute(lj_small):
    """Record once + replay four ways must beat four independent runs.

    PageRank on livejournal-sim (small tier), 8 partitions, 5 iterations,
    with byte-identical movement totals on every architecture; the
    speedup's bar is its row in ``check_regression.py``.
    """
    kernel = PageRank()
    cfg = SystemConfig(num_memory_nodes=8)
    ndp_cfg = cfg.with_options(enable_inc=True)

    def simulators():
        return [
            DistributedSimulator(cfg),
            DistributedNDPSimulator(cfg),
            DisaggregatedSimulator(cfg),
            DisaggregatedNDPSimulator(ndp_cfg),
        ]

    def shared_path():
        trace = record_trace(
            lj_small, kernel, num_parts=8, max_iterations=5, seed=7
        )
        return [sim.replay(trace) for sim in simulators()]

    def independent_path():
        return [
            sim.run(lj_small, kernel, max_iterations=5, seed=7)
            for sim in simulators()
        ]

    shared_seconds, shared_runs = min_of(shared_path)
    independent_seconds, independent_runs = min_of(independent_path)

    for rep, ind in zip(shared_runs, independent_runs):
        assert rep.total_host_link_bytes == ind.total_host_link_bytes
        assert rep.total_network_bytes == ind.total_network_bytes
        assert rep.iterations == ind.iterations

    speedup = independent_seconds / shared_seconds
    write_bench(
        "BENCH_engine.json",
        "trace_replay_vs_reexecute",
        {
            "workload": "pagerank/livejournal-sim/small",
            "partitions": 8,
            "iterations": 5,
            "shared_seconds": shared_seconds,
            "independent_seconds": independent_seconds,
            "speedup": speedup,
            "movement_identical": True,
        },
    )


def test_cached_vs_uncached_profile(lj_small):
    """A warm structural-profile cache must dominate the |E|-key re-sort."""
    assignment = HashPartitioner().partition(lj_small, 8, seed=7)
    frontier = np.arange(lj_small.num_vertices, dtype=np.int64)

    # Each uncached round profiles under a fresh assignment, so the pair
    # pass the assignment caches is timed every round, never served.
    uncached_seconds, fresh = min_of(
        lambda: frontier_structure(
            lj_small, frontier, PartitionAssignment(assignment.parts, 8)
        ),
        rounds=5,
    )
    cache = StructuralProfileCache()
    frontier_structure(lj_small, frontier, assignment, cache=cache)
    cached_seconds, cached = min_of(
        lambda: frontier_structure(lj_small, frontier, assignment, cache=cache),
        rounds=5,
    )
    assert cache.hits >= 5
    np.testing.assert_array_equal(cached.pair_dst, fresh.pair_dst)

    speedup = uncached_seconds / cached_seconds
    write_bench(
        "BENCH_engine.json",
        "cached_vs_uncached_profile",
        {
            "workload": "pagerank-frontier/livejournal-sim/small",
            "partitions": 8,
            "uncached_seconds": uncached_seconds,
            "cached_seconds": cached_seconds,
            "speedup": speedup,
        },
    )


def test_structural_profile_fast_vs_oracle():
    """The O(E) flag-array profiler against the sort oracle.

    Measured on BFS's widest frontier at the large preset — the
    profiling-dominated regime where the sort oracle pays two |E| log |E|
    ``np.unique`` sorts per iteration.
    """
    from repro.arch.engine import prepare_graph
    from repro.kernels.registry import get_kernel

    graph, _ = load_dataset("livejournal-sim", tier="large", seed=7)
    kernel = get_kernel("bfs")
    prepared = prepare_graph(graph, kernel)
    assignment = HashPartitioner().partition(prepared, 16, seed=7)
    source = int(prepared.out_degrees.argmax())

    # Step BFS to its widest frontier.
    state = kernel.initial_state(prepared, source=source)
    widest = state.frontier.copy()
    for _ in range(6):
        if state.frontier.size == 0:
            break
        if state.frontier.size > widest.size:
            widest = state.frontier.copy()
        execute_iteration(kernel, state, assignment)

    fast_seconds, fast = min_of(
        lambda: frontier_structure(prepared, widest, assignment), rounds=5
    )
    oracle_seconds, ref = min_of(
        lambda: frontier_structure_reference(prepared, widest, assignment),
        rounds=5,
    )
    np.testing.assert_array_equal(fast.pair_dst, ref.pair_dst)
    np.testing.assert_array_equal(fast.pair_part, ref.pair_part)
    np.testing.assert_array_equal(
        fast.updates_per_destination, ref.updates_per_destination
    )

    speedup = oracle_seconds / fast_seconds
    write_bench(
        "BENCH_engine.json",
        "structural_profile_fast_vs_oracle",
        {
            "workload": "bfs-widest-frontier/livejournal-sim/large",
            "partitions": 16,
            "frontier_size": int(widest.size),
            "edges_traversed": int(fast.edges_traversed),
            "fast_seconds": fast_seconds,
            "oracle_seconds": oracle_seconds,
            "speedup": speedup,
        },
    )


def test_profile_throughput_medium():
    """Medium-preset profiling throughput — the bench-regression anchor.

    Its row in ``benchmarks/check_regression.py`` bounds the fast path's
    speedup over the (stable, sort-based) oracle by a fraction of the
    committed baseline.  The ratio is used rather
    than raw seconds so the check is portable across runner hardware; the
    absolute edges/second figure is recorded for human eyes.
    """
    graph, _ = load_dataset("livejournal-sim", tier="medium", seed=7)
    assignment = HashPartitioner().partition(graph, 16, seed=7)
    frontier = np.arange(graph.num_vertices, dtype=np.int64)

    # A fresh assignment per round: one object would serve every round
    # after the first from its cached pair pass, and the ratio would stop
    # measuring the pass.
    fast_seconds, fast = min_of(
        lambda: frontier_structure(
            graph, frontier, PartitionAssignment(assignment.parts, 16)
        ),
        rounds=5,
    )
    oracle_seconds, ref = min_of(
        lambda: frontier_structure_reference(graph, frontier, assignment),
        rounds=3,
    )
    np.testing.assert_array_equal(fast.pair_dst, ref.pair_dst)

    write_bench(
        "BENCH_engine.json",
        "profile_throughput_medium",
        {
            "workload": "all-vertices/livejournal-sim/medium",
            "partitions": 16,
            "edges": int(graph.num_edges),
            "fast_seconds": fast_seconds,
            "oracle_seconds": oracle_seconds,
            "edges_per_second": graph.num_edges / fast_seconds,
            "speedup": oracle_seconds / fast_seconds,
        },
    )
    assert oracle_seconds > fast_seconds
