"""Unit tests for reference traversals, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, path_graph, ring_graph, star_graph
from repro.graph.traversal import (
    _gather,
    _gather_positions,
    bfs_levels,
    gather_neighbor_slices,
)
from support.traversal import weak_component_labels


def to_nx(graph: CSRGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


class TestGather:
    def test_matches_neighbors(self, tiny_er):
        vertices = np.array([1, 4, 9])
        expected = np.concatenate([tiny_er.neighbors(int(v)) for v in vertices])
        assert np.array_equal(
            gather_neighbor_slices(tiny_er, vertices), expected
        )

    def test_empty(self, tiny_er):
        out = gather_neighbor_slices(tiny_er, np.array([], dtype=np.int64))
        assert out.size == 0

    def test_zero_degree_vertices(self):
        g = CSRGraph.from_edges([0], [1], 4)
        out = gather_neighbor_slices(g, np.array([1, 2, 3]))
        assert out.size == 0


INDEX_DTYPES = (np.uint32, np.int64)


def ragged_case(seed, *, index_dtype, n_values=500, n_slices=60):
    """Random (values, starts, lens) triple simulating CSR frontier slices."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_values)
    starts = rng.integers(0, n_values, size=n_slices)
    lens = rng.integers(0, 12, size=n_slices)
    lens = np.minimum(lens, n_values - starts)
    return values, starts.astype(index_dtype), lens.astype(np.int64)


class TestRaggedGather:
    """``_gather`` is the engine's frontier gather: an exact, in-order
    concatenation of the CSR slices, whatever the index dtype."""

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_slice_concatenation(self, seed, index_dtype):
        values, starts, lens = ragged_case(seed, index_dtype=index_dtype)
        want = np.concatenate(
            [values[int(s) : int(s) + int(n)] for s, n in zip(starts, lens)]
        )
        np.testing.assert_array_equal(_gather(values, starts, lens), want)

    def test_empty_frontier(self):
        empty = np.empty(0, dtype=np.int64)
        out = _gather(np.arange(10.0), empty, empty)
        assert out.size == 0
        assert out.dtype == np.float64

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_preserves_value_dtype(self, index_dtype):
        values = np.arange(20, dtype=np.uint32)
        starts = np.asarray([0, 10], dtype=index_dtype)
        lens = np.asarray([5, 5], dtype=np.int64)
        out = _gather(values, starts, lens)
        assert out.dtype == np.uint32
        np.testing.assert_array_equal(out, [0, 1, 2, 3, 4, 10, 11, 12, 13, 14])


class TestGatherPositions:
    """The one position pass behind ``_gather``: empty slices between
    non-empty ones and starts in any order, as unsorted frontiers give."""

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_empty_slices_and_non_monotone_starts(self, index_dtype):
        starts = np.asarray([7, 3, 12, 0, 9, 0, 5], dtype=index_dtype)
        lens = np.asarray([2, 0, 3, 0, 1, 4, 0], dtype=np.int64)
        want = [7, 8, 12, 13, 14, 9, 0, 1, 2, 3]
        np.testing.assert_array_equal(_gather_positions(starts, lens), want)
        values = np.arange(100, 120, dtype=np.float64)
        np.testing.assert_array_equal(_gather(values, starts, lens), values[want])

    def test_all_slices_empty(self):
        starts = np.asarray([4, 1, 9], dtype=np.int64)
        out = _gather_positions(starts, np.zeros(3, dtype=np.int64))
        assert out.size == 0


class TestBFS:
    def test_path(self):
        g = path_graph(5, directed=True)
        levels = bfs_levels(g, 0)
        assert list(levels) == [0, 1, 2, 3, 4]

    def test_unreachable_marked(self):
        g = path_graph(5, directed=True)
        levels = bfs_levels(g, 2)
        assert list(levels) == [-1, -1, 0, 1, 2]

    def test_matches_networkx(self, tiny_er):
        levels = bfs_levels(tiny_er, 0)
        nx_levels = nx.single_source_shortest_path_length(to_nx(tiny_er), 0)
        for v in range(tiny_er.num_vertices):
            expected = nx_levels.get(v, -1)
            assert levels[v] == expected

    def test_source_out_of_range(self, tiny_er):
        with pytest.raises(GraphError):
            bfs_levels(tiny_er, tiny_er.num_vertices)


class TestComponents:
    def test_two_rings(self):
        a = ring_graph(5)
        src, dst = a.edge_array()
        g = CSRGraph.from_edges(
            np.concatenate([src, src + 5]),
            np.concatenate([dst, dst + 5]),
            10,
        )
        labels = weak_component_labels(g)
        assert list(labels) == [0] * 5 + [5] * 5

    def test_labels_are_min_ids(self):
        g = CSRGraph.from_edges([3, 1], [4, 2], 5)
        labels = weak_component_labels(g)
        assert labels[3] == labels[4] == 3
        assert labels[1] == labels[2] == 1
        assert labels[0] == 0

    def test_matches_networkx(self, tiny_rmat):
        labels = weak_component_labels(tiny_rmat)
        nx_components = list(
            nx.weakly_connected_components(to_nx(tiny_rmat))
        )
        assert np.unique(labels).size == len(nx_components)
        for comp in nx_components:
            comp_labels = {int(labels[v]) for v in comp}
            assert len(comp_labels) == 1

    def test_directed_edges_treated_weakly(self):
        g = CSRGraph.from_edges([0], [1], 2)
        assert np.unique(weak_component_labels(g)).size == 1

    def test_empty_graph(self):
        labels = weak_component_labels(CSRGraph.empty(3))
        assert list(labels) == [0, 1, 2]

    def test_star_single_component(self):
        labels = weak_component_labels(star_graph(10))
        assert np.unique(labels).size == 1
