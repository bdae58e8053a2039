"""Unit tests for graph statistics."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, star_graph
from support.graph_stats import compute_stats, gini


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
