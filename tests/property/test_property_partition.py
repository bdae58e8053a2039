"""Property-based tests on partitioners and mirrors (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.trace import record_trace
from repro.graph.csr import CSRGraph
from repro.kernels.pagerank import PageRank
from repro.partition import (
    BFSGrowPartitioner,
    HashPartitioner,
    LDGStreamingPartitioner,
    MetisPartitioner,
    RandomPartitioner,
    RangePartitioner,
    build_mirror_table,
    communication_volume,
    edge_cut,
    replication_factor,
)
from repro.partition.metis.coarsen import coarsen
from repro.partition.metis.matching import heavy_edge_matching, matching_is_valid
from repro.partition.metis.wgraph import from_csr


@st.composite
def graphs(draw, max_vertices=30, max_edges=90):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n
    )


partitioner_st = st.sampled_from(
    [HashPartitioner(), RandomPartitioner(), RangePartitioner()]
)


@given(graphs(), st.integers(1, 6), partitioner_st)
@settings(max_examples=60, deadline=None)
def test_every_vertex_assigned_exactly_once(graph, k, partitioner):
    a = partitioner.partition(graph, k, seed=1)
    assert a.parts.size == graph.num_vertices
    assert a.sizes().sum() == graph.num_vertices
    assert 0 <= a.parts.min() and a.parts.max() < k


@given(graphs(), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_metis_assignment_valid(graph, k):
    a = MetisPartitioner().partition(graph, k, seed=2)
    assert a.sizes().sum() == graph.num_vertices
    assert a.num_parts == k


@given(graphs(), st.integers(1, 6), partitioner_st)
@settings(max_examples=40, deadline=None)
def test_metric_relationships(graph, k, partitioner):
    a = partitioner.partition(graph, k, seed=3)
    cut = edge_cut(graph, a)
    cv = communication_volume(graph, a)
    table = build_mirror_table(graph, a)
    # communication volume == push-mirror count, both bounded by the cut
    assert cv == table.num_mirrors
    assert cv <= cut <= graph.num_edges
    # replication factor consistent with mirror count
    assert replication_factor(table) == 1.0 + cv / graph.num_vertices


@given(
    graphs(),
    st.integers(1, 6),
    st.sampled_from(
        [HashPartitioner(), LDGStreamingPartitioner(), BFSGrowPartitioner()]
    ),
)
@settings(max_examples=60, deadline=None)
def test_full_frontier_cross_pairs_are_volume_and_mirrors(graph, k, partitioner):
    # Fig. 6's closed form: when every vertex is active, the mirror->master
    # updates of one iteration are the partition's communication volume,
    # which is its push-mirror count.
    trace = record_trace(
        graph, PageRank(), num_parts=k, partitioner=partitioner, max_iterations=1
    )
    profile = trace.profiles[0]
    assert profile.frontier_size == trace.graph.num_vertices
    cross = profile.cross_update_pairs(trace.assignment.parts)
    volume = communication_volume(trace.graph, trace.assignment)
    assert cross == volume == trace.mirror_table.num_mirrors


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_single_part_is_free(graph):
    a = HashPartitioner().partition(graph, 1)
    assert edge_cut(graph, a) == 0
    assert communication_volume(graph, a) == 0


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_matching_always_valid(graph):
    wg = from_csr(graph)
    match = heavy_edge_matching(wg, seed=4)
    assert matching_is_valid(match)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_coarsening_conserves_weight_and_shrinks(graph):
    wg = from_csr(graph)
    match = heavy_edge_matching(wg, seed=5)
    coarse, cmap = coarsen(wg, match)
    coarse.validate()
    assert coarse.total_vweight == wg.total_vweight
    assert coarse.num_vertices <= wg.num_vertices
    # total edge weight never grows under contraction
    assert coarse.eweights.sum() <= wg.eweights.sum()
