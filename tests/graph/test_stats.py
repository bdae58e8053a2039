"""Unit tests for graph statistics."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat, star_graph
from support.graph_stats import (
    compute_stats,
    degree_histogram,
    frontier_out_degree_sum,
    gini,
    powerlaw_exponent_estimate,
)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(100, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_single_owner_is_extreme(self):
        values = np.zeros(100)
        values[0] = 1000
        assert gini(values) > 0.95

    def test_empty(self):
        assert gini(np.array([])) == 0.0

    def test_all_zero(self):
        assert gini(np.zeros(10)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini(np.array([-1.0, 2.0]))

    def test_monotone_in_skew(self):
        mild = np.array([1, 2, 3, 4, 5])
        strong = np.array([1, 1, 1, 1, 100])
        assert gini(strong) > gini(mild)


class TestComputeStats:
    def test_star(self):
        stats = compute_stats(star_graph(10))
        assert stats.num_vertices == 11
        assert stats.max_out_degree == 10
        assert stats.max_in_degree == 1
        assert stats.skew_ratio == pytest.approx(10 / (10 / 11))

    def test_complete(self):
        stats = compute_stats(complete_graph(5))
        assert stats.max_out_degree == 4
        assert stats.gini_out_degree == pytest.approx(0.0, abs=1e-9)
        assert stats.isolated_vertices == 0

    def test_self_loops_counted(self):
        g = CSRGraph.from_edges([0, 1], [0, 2], 3)
        assert compute_stats(g).self_loops == 1

    def test_isolated_vertices(self):
        g = CSRGraph.from_edges([0], [1], 5)
        assert compute_stats(g).isolated_vertices == 3

    def test_empty_graph(self):
        stats = compute_stats(CSRGraph.empty(0))
        assert stats.num_vertices == 0
        assert stats.avg_out_degree == 0.0
        assert stats.skew_ratio == 0.0


class TestDegreeHistogram:
    def test_star_out(self):
        degrees, counts = degree_histogram(star_graph(10))
        assert list(degrees) == [0, 10]
        assert list(counts) == [10, 1]

    def test_star_in(self):
        degrees, counts = degree_histogram(star_graph(10), direction="in")
        assert list(degrees) == [0, 1]
        assert list(counts) == [1, 10]

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            degree_histogram(star_graph(3), direction="sideways")

    def test_total_matches_vertices(self):
        g = rmat(8, 8, seed=1)
        _, counts = degree_histogram(g)
        assert counts.sum() == g.num_vertices


class TestPowerlawEstimate:
    def test_rmat_is_heavy_tailed(self):
        g = rmat(12, 16, a=0.6, b=0.15, c=0.15, seed=3)
        alpha = powerlaw_exponent_estimate(g)
        assert 1.2 < alpha < 4.0

    def test_insufficient_tail_is_nan(self):
        g = CSRGraph.from_edges([0], [1], 5)
        assert np.isnan(powerlaw_exponent_estimate(g))


class TestFrontierDegreeSum:
    def test_matches_manual(self, tiny_er):
        frontier = np.array([0, 5, 7])
        expected = sum(int(tiny_er.out_degrees[v]) for v in frontier)
        assert frontier_out_degree_sum(tiny_er, frontier) == expected

    def test_empty_frontier(self, tiny_er):
        assert frontier_out_degree_sum(tiny_er, np.array([], dtype=np.int64)) == 0

    def test_full_frontier_is_edge_count(self, tiny_er):
        frontier = np.arange(tiny_er.num_vertices)
        assert frontier_out_degree_sum(tiny_er, frontier) == tiny_er.num_edges
