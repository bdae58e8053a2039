"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    ring_graph,
    rmat,
    star_graph,
    watts_strogatz,
)
from support.graph_stats import compute_stats, gini


class TestRMAT:
    def test_sizes(self):
        g = rmat(8, 4, seed=1, dedup=False)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic_with_seed(self):
        assert rmat(8, 4, seed=3) == rmat(8, 4, seed=3)

    def test_different_seeds_differ(self):
        assert rmat(8, 4, seed=3) != rmat(8, 4, seed=4)

    def test_no_self_loops_by_default(self):
        g = rmat(8, 8, seed=2)
        src, dst = g.edge_array()
        assert not np.any(src == dst)

    def test_skew_increases_with_a(self):
        flat = rmat(10, 8, a=0.25, b=0.25, c=0.25, seed=5, dedup=False)
        skewed = rmat(10, 8, a=0.7, b=0.1, c=0.1, seed=5, dedup=False)
        assert gini(skewed.out_degrees) > gini(flat.out_degrees)

    def test_weighted(self):
        g = rmat(6, 4, seed=1, weighted=True)
        assert g.has_weights
        assert np.all(g.weights >= 1.0)

    def test_invalid_probabilities(self):
        with pytest.raises(GraphError, match="probabilities"):
            rmat(5, 4, a=0.9, b=0.5, c=0.1)

    def test_invalid_scale(self):
        with pytest.raises(GraphError, match="scale"):
            rmat(-1, 4)

    def test_scale_zero(self):
        g = rmat(0, 0, seed=1)
        assert g.num_vertices == 1
        assert g.num_edges == 0


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi(100, 500, seed=1, dedup=False)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_no_self_loops(self):
        g = erdos_renyi(50, 400, seed=2)
        src, dst = g.edge_array()
        assert not np.any(src == dst)

    def test_self_loops_allowed(self):
        g = erdos_renyi(10, 500, seed=3, self_loops=True, dedup=False)
        src, dst = g.edge_array()
        assert np.any(src == dst)  # overwhelmingly likely at this density

    def test_empty_graph_with_edges_rejected(self):
        with pytest.raises(GraphError, match="empty graph"):
            erdos_renyi(0, 5)

    def test_degrees_roughly_uniform(self):
        g = erdos_renyi(200, 4000, seed=4, dedup=False)
        assert gini(g.out_degrees) < 0.3


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert(100, 3, seed=1)
        assert g.num_vertices == 100
        # each arriving vertex adds `attach` edges
        assert g.num_edges == (100 - 3) * 3

    def test_heavy_tail(self):
        g = barabasi_albert(500, 3, seed=2)
        stats = compute_stats(g)
        assert stats.max_in_degree > 10 * (g.num_edges / g.num_vertices)

    def test_undirected_variant(self):
        g = barabasi_albert(50, 2, seed=3, directed=False)
        assert np.array_equal(
            g.symmetrized().out_degrees, g.out_degrees
        )  # already symmetric

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            barabasi_albert(5, 0)
        with pytest.raises(GraphError):
            barabasi_albert(3, 3)

    def test_attachments_distinct(self):
        g = barabasi_albert(300, 5, seed=7)
        # Each arriving vertex's targets are distinct: no parallel edges.
        src, dst = g.edge_array()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == g.num_edges

    # sha256[:16] of (indptr, indices-as-int64) for fixed seeds.  The
    # rejection-sampling attachment draw is part of the generator's contract
    # now: a digest change here means every BA-derived experiment input
    # moved.  Indices are widened to int64 before hashing so the pin tracks
    # the edge *values*, not the storage dtype CSRGraph happens to pick.
    PINNED = {
        (100, 3, 1): "4387209a54c8acc2",
        (500, 3, 2): "07bf364b4986426a",
    }

    @pytest.mark.parametrize("n,attach,seed", sorted(PINNED))
    def test_pinned_digest(self, n, attach, seed):
        import hashlib

        g = barabasi_albert(n, attach, seed=seed)
        digest = hashlib.sha256(
            g.indptr.tobytes() + g.indices.astype(np.int64).tobytes()
        ).hexdigest()[:16]
        assert digest == self.PINNED[(n, attach, seed)]

    def test_seed_stability_across_calls(self):
        a = barabasi_albert(200, 4, seed=9)
        b = barabasi_albert(200, 4, seed=9)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)


class TestWattsStrogatz:
    def test_sizes_no_rewire(self):
        g = watts_strogatz(20, 4, 0.0, seed=1)
        # ring lattice: every vertex connects to k neighbors
        assert np.all(g.out_degrees == 4)

    def test_rewire_changes_structure(self):
        a = watts_strogatz(50, 4, 0.0, seed=2)
        b = watts_strogatz(50, 4, 0.9, seed=2)
        assert a != b

    def test_validation(self):
        with pytest.raises(GraphError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GraphError):
            watts_strogatz(4, 4, 0.1)  # n <= k
        with pytest.raises(GraphError):
            watts_strogatz(10, 4, 1.5)  # bad prob


class TestStructuredGraphs:
    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        # internal 4-neighbor grid: 2*(rows*(cols-1) + (rows-1)*cols) directed
        assert g.num_edges == 2 * (3 * 3 + 2 * 4)

    def test_grid_validation(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)

    def test_ring_directed(self):
        g = ring_graph(5, directed=True)
        assert np.all(g.out_degrees == 1)
        assert list(g.neighbors(4)) == [0]

    def test_ring_undirected(self):
        g = ring_graph(5)
        assert np.all(g.out_degrees == 2)

    def test_path_directed(self):
        g = path_graph(4, directed=True)
        assert g.num_edges == 3
        assert g.out_degrees[3] == 0

    def test_path_undirected(self):
        g = path_graph(4)
        assert g.num_edges == 6

    def test_star_out(self):
        g = star_graph(5)
        assert g.out_degrees[0] == 5
        assert np.all(g.out_degrees[1:] == 0)

    def test_star_undirected(self):
        g = star_graph(5, directed_out=False)
        assert g.out_degrees[0] == 5
        assert np.all(g.out_degrees[1:] == 1)

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20
        assert np.all(g.out_degrees == 4)

    def test_complete_with_loops(self):
        g = complete_graph(3, self_loops=True)
        assert g.num_edges == 9

    def test_single_vertex_graphs(self):
        assert ring_graph(1).num_vertices == 1
        assert path_graph(1).num_edges == 0
        assert star_graph(0).num_vertices == 1
