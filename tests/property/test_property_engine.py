"""Property-based tests on the execution engine and accounting invariants.

The central one: for every random graph and partitioning, the simulator's
measured movement equals the closed-form cost model — the simulators never
drift from the documented byte formulas.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.engine import execute_iteration
from repro.graph.csr import CSRGraph
from repro.kernels.cc import ConnectedComponents
from repro.kernels.pagerank import PageRank
from repro.partition.base import PartitionAssignment
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import exact_movement
from support import kernel_reference as reference


@st.composite
def partitioned_graphs(draw, max_vertices=30, max_edges=90, max_parts=5):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    k = draw(st.integers(min_value=1, max_value=max_parts))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    parts = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    graph = CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n
    )
    assignment = PartitionAssignment(np.asarray(parts, dtype=np.int64), k)
    return graph, assignment


@given(partitioned_graphs())
@settings(max_examples=40, deadline=None)
def test_profile_count_invariants(data):
    graph, assignment = data
    kernel = PageRank()
    state = kernel.initial_state(graph)
    profile = execute_iteration(kernel, state, assignment)
    assert profile.edges_traversed == graph.num_edges
    assert profile.edges_per_part.sum() == profile.edges_traversed
    assert profile.partials_per_part.sum() == profile.partial_update_pairs
    assert profile.distinct_destinations <= profile.partial_update_pairs
    assert profile.partial_update_pairs <= min(
        profile.edges_traversed,
        profile.distinct_destinations * assignment.num_parts,
    )
    assert profile.updates_per_destination.sum() == profile.partial_update_pairs
    # cross pairs bounded by total pairs
    cross = profile.cross_update_pairs(assignment.parts)
    assert 0 <= cross <= profile.partial_update_pairs


@given(partitioned_graphs(max_parts=4))
@settings(max_examples=25, deadline=None)
def test_measured_movement_equals_cost_model(data):
    graph, assignment = data
    kernel = PageRank(max_iterations=2)
    config = SystemConfig(num_memory_nodes=assignment.num_parts)
    fetch_run = DisaggregatedSimulator(config).run(
        graph, kernel, assignment=assignment, max_iterations=2
    )
    offload_run = DisaggregatedNDPSimulator(config).run(
        graph, PageRank(max_iterations=2), assignment=assignment, max_iterations=2
    )
    for stats_fetch, stats_off in zip(
        fetch_run.iterations, offload_run.iterations
    ):
        est = exact_movement(
            kernel,
            frontier_size=stats_fetch.frontier_size,
            edges_traversed=stats_fetch.edges_traversed,
            partial_pairs=stats_fetch.partial_update_pairs,
            distinct_destinations=stats_fetch.distinct_destinations,
        )
        assert stats_fetch.host_link_bytes == est.fetch_bytes
        assert stats_off.host_link_bytes == est.offload_bytes


@given(partitioned_graphs(max_parts=4))
@settings(max_examples=20, deadline=None)
def test_numerics_independent_of_architecture_and_partition(data):
    graph, assignment = data
    config = SystemConfig(num_memory_nodes=assignment.num_parts)
    run = DisaggregatedNDPSimulator(config).run(
        graph, PageRank(max_iterations=5), assignment=assignment,
        max_iterations=5,
    )
    expected = reference.pagerank(graph, max_iterations=5)
    assert np.allclose(run.result_property(), expected)


@given(partitioned_graphs(max_parts=4))
@settings(max_examples=20, deadline=None)
def test_cc_always_converges_to_reference(data):
    graph, assignment = data
    config = SystemConfig(num_memory_nodes=assignment.num_parts)
    # CC symmetrizes internally; reuse the assignment (same vertex count).
    run = DisaggregatedSimulator(config).run(
        graph, ConnectedComponents(), assignment=assignment
    )
    assert run.converged
    assert np.array_equal(
        run.result_property(), reference.connected_components(graph)
    )


@given(partitioned_graphs(max_parts=4))
@settings(max_examples=20, deadline=None)
def test_inc_bounded_by_offload_and_distinct(data):
    graph, assignment = data
    k = assignment.num_parts
    base_cfg = SystemConfig(num_memory_nodes=k)
    inc_cfg = base_cfg.with_options(enable_inc=True)
    base = DisaggregatedNDPSimulator(base_cfg).run(
        graph, PageRank(max_iterations=2), assignment=assignment, max_iterations=2
    )
    inc = DisaggregatedNDPSimulator(inc_cfg).run(
        graph, PageRank(max_iterations=2), assignment=assignment, max_iterations=2
    )
    for b, i in zip(base.iterations, inc.iterations):
        assert i.host_link_bytes <= b.host_link_bytes
        floor = (
            PageRank().prop_push_bytes * b.frontier_size
            + PageRank().message.wire_bytes * b.distinct_destinations
        )
        assert i.host_link_bytes >= floor
