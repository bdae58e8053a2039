"""Unit tests for the shared execution engine's structural profiling."""

import numpy as np
import pytest

from repro.arch.engine import execute_iteration, prepare_graph
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.kernels.cc import ConnectedComponents
from repro.kernels.pagerank import PageRank
from repro.kernels.sssp import SSSP
from repro.partition.base import PartitionAssignment
from repro.partition.mirrors import build_mirror_table


def assign(parts, k):
    return PartitionAssignment(np.asarray(parts, dtype=np.int64), k)


class TestPrepareGraph:
    def test_symmetrize_for_cc(self, tiny_rmat):
        g = prepare_graph(tiny_rmat, ConnectedComponents())
        assert np.array_equal(g.out_degrees, g.in_degrees)

    def test_weights_added_for_sssp(self, tiny_er):
        g = prepare_graph(tiny_er, SSSP())
        assert g.has_weights
        assert np.all(g.weights == 1.0)

    def test_existing_weights_kept(self, weighted_er):
        g = prepare_graph(weighted_er, SSSP())
        assert g is weighted_er

    def test_pagerank_unchanged(self, tiny_er):
        assert prepare_graph(tiny_er, PageRank()) is tiny_er


class TestExecuteIteration:
    def _run_one(self, graph, kernel, parts, k, **kwargs):
        state = kernel.initial_state(graph, **kwargs)
        a = assign(parts, k)
        profile = execute_iteration(kernel, state, a)
        return state, profile

    def test_edges_traversed_counts_frontier_degrees(self, tiny_er):
        kernel = PageRank()
        _, profile = self._run_one(
            tiny_er, kernel, np.arange(tiny_er.num_vertices) % 4, 4
        )
        assert profile.edges_traversed == tiny_er.num_edges
        assert profile.frontier_size == tiny_er.num_vertices

    def test_per_part_totals_consistent(self, tiny_rmat):
        kernel = PageRank()
        parts = np.arange(tiny_rmat.num_vertices) % 4
        _, profile = self._run_one(tiny_rmat, kernel, parts, 4)
        assert profile.edges_per_part.sum() == profile.edges_traversed
        assert profile.frontier_per_part.sum() == profile.frontier_size
        assert profile.partials_per_part.sum() == profile.partial_update_pairs

    def test_pair_arrays_consistent(self, tiny_rmat):
        kernel = PageRank()
        parts = np.arange(tiny_rmat.num_vertices) % 4
        _, profile = self._run_one(tiny_rmat, kernel, parts, 4)
        assert profile.pair_dst.size == profile.pair_part.size
        # distinct destinations == unique pair destinations == touched
        assert np.array_equal(np.unique(profile.pair_dst), profile.touched)
        assert profile.updates_per_destination.sum() == profile.partial_update_pairs
        assert profile.updates_per_destination.size == profile.distinct_destinations

    def test_partial_pairs_bounds(self, tiny_rmat):
        kernel = PageRank()
        parts = np.arange(tiny_rmat.num_vertices) % 8
        _, profile = self._run_one(tiny_rmat, kernel, parts, 8)
        assert profile.distinct_destinations <= profile.partial_update_pairs
        assert profile.partial_update_pairs <= profile.edges_traversed
        assert profile.partial_update_pairs <= 8 * profile.distinct_destinations

    def test_single_part_pairs_equal_touched(self, tiny_er):
        kernel = PageRank()
        _, profile = self._run_one(tiny_er, kernel, np.zeros(tiny_er.num_vertices), 1)
        assert profile.partial_update_pairs == profile.distinct_destinations

    def test_cross_pairs_zero_single_part(self, tiny_er):
        kernel = PageRank()
        _, profile = self._run_one(tiny_er, kernel, np.zeros(tiny_er.num_vertices), 1)
        owner = np.zeros(tiny_er.num_vertices, dtype=np.int64)
        assert profile.cross_update_pairs(owner) == 0

    def test_cross_pairs_matches_manual(self):
        # 0,1 on part 0; 2 on part 1.  Edges 0->2 (cross), 1->0 (local).
        g = CSRGraph.from_edges([0, 1], [2, 0], 3)
        kernel = PageRank()
        state = kernel.initial_state(g)
        a = assign([0, 0, 1], 2)
        profile = execute_iteration(kernel, state, a)
        assert profile.partial_update_pairs == 2
        assert profile.cross_update_pairs(a.parts) == 1

    def test_mirror_pairs_tracked(self, tiny_rmat):
        kernel = PageRank()
        parts = np.arange(tiny_rmat.num_vertices) % 4
        a = assign(parts, 4)
        table = build_mirror_table(tiny_rmat, a)
        mirrors = table.mirrors_per_vertex()
        state = kernel.initial_state(tiny_rmat)
        profile = execute_iteration(
            kernel, state, a, mirrors_per_vertex=mirrors
        )
        expected = int(mirrors[profile.changed].sum())
        assert profile.changed_mirror_pairs == expected

    def test_state_advances(self, tiny_er):
        kernel = PageRank()
        state = kernel.initial_state(tiny_er)
        a = assign(np.zeros(tiny_er.num_vertices), 1)
        execute_iteration(kernel, state, a)
        assert state.iteration == 1

    def test_empty_frontier(self, tiny_er):
        kernel = PageRank()
        state = kernel.initial_state(tiny_er)
        state.frontier = np.empty(0, dtype=np.int64)
        a = assign(np.zeros(tiny_er.num_vertices), 1)
        profile = execute_iteration(kernel, state, a)
        assert profile.edges_traversed == 0
        assert profile.partial_update_pairs == 0

    def test_partition_size_mismatch(self, tiny_er):
        kernel = PageRank()
        state = kernel.initial_state(tiny_er)
        with pytest.raises(SimulationError):
            execute_iteration(kernel, state, assign([0, 1], 2))

    def test_sssp_weights_flow_through(self, weighted_er):
        kernel = SSSP()
        state = kernel.initial_state(weighted_er, source=0)
        a = assign(np.zeros(weighted_er.num_vertices), 1)
        profile = execute_iteration(kernel, state, a)
        # Neighbors of the source got candidate distances = edge weights.
        dist = state.prop("distance")
        for v, w in zip(
            weighted_er.neighbors(0).tolist(),
            weighted_er.weights[: weighted_er.indptr[1]].tolist(),
        ):
            assert dist[v] <= w + 1e-12
