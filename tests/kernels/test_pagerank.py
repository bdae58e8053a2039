"""PageRank correctness: engine == reference == networkx (where aligned)."""

import networkx as nx
import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, erdos_renyi, ring_graph
from repro.kernels.pagerank import PageRank
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference


def run_engine(graph, kernel, **kwargs):
    sim = DisaggregatedSimulator(SystemConfig(num_memory_nodes=4))
    return sim.run(graph, kernel, **kwargs)


class TestPageRankParams:
    def test_damping_validation(self):
        with pytest.raises(ValueError):
            PageRank(damping=0.0)
        with pytest.raises(ValueError):
            PageRank(damping=1.0)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            PageRank(tolerance=-1)


class TestPageRankNumerics:
    def test_matches_reference(self, tiny_rmat):
        run = run_engine(tiny_rmat, PageRank(max_iterations=20))
        expected = reference.pagerank(tiny_rmat, max_iterations=20)
        assert np.allclose(run.result_property(), expected)

    def test_ring_uniform(self):
        g = ring_graph(10, directed=True)
        run = run_engine(g, PageRank(max_iterations=50))
        ranks = run.result_property()
        assert np.allclose(ranks, ranks[0])
        assert ranks[0] == pytest.approx(0.1, rel=1e-3)

    def test_complete_graph_uniform(self):
        g = complete_graph(8)
        run = run_engine(g, PageRank(max_iterations=30))
        assert np.allclose(run.result_property(), 1 / 8, rtol=1e-6)

    def test_matches_networkx_on_dangling_free_graph(self):
        # Ensure no dangling vertices so the recurrences coincide.
        g = ring_graph(30, directed=True)
        src, dst = g.edge_array()
        rng = np.random.default_rng(3)
        extra_src = rng.integers(0, 30, 60)
        extra_dst = (extra_src + rng.integers(1, 30, 60)) % 30
        g = CSRGraph.from_edges(
            np.concatenate([src, extra_src]),
            np.concatenate([dst, extra_dst]),
            30,
            dedup=True,
        )
        assert g.out_degrees.min() > 0
        run = run_engine(g, PageRank(max_iterations=100, tolerance=1e-12))
        G = nx.DiGraph()
        G.add_nodes_from(range(30))
        s, d = g.edge_array()
        G.add_edges_from(zip(s.tolist(), d.tolist()))
        nx_pr = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=200)
        ours = run.result_property()
        for v in range(30):
            assert ours[v] == pytest.approx(nx_pr[v], rel=1e-4)

    def test_rank_mass_bounded(self, tiny_rmat):
        # Without dangling redistribution total mass is <= 1 and > (1-d).
        run = run_engine(tiny_rmat, PageRank(max_iterations=30))
        total = run.result_property().sum()
        assert 0.15 < total <= 1.0 + 1e-9

    def test_convergence_stops_early(self):
        g = ring_graph(10, directed=True)
        run = run_engine(g, PageRank(max_iterations=500, tolerance=1e-10))
        assert run.converged
        assert run.num_iterations < 100

    def test_high_rank_for_hub(self, star20):
        # Leaves all point nowhere; hub holds all out-edges.  Reverse the
        # star so everyone points at the hub.
        hub_in = star20.reverse()
        run = run_engine(hub_in, PageRank(max_iterations=20))
        ranks = run.result_property()
        assert ranks[0] == ranks.max()

    def test_frontier_always_full(self, tiny_er):
        run = run_engine(tiny_er, PageRank(max_iterations=3))
        for stats in run.iterations:
            assert stats.frontier_size == tiny_er.num_vertices

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        run = run_engine(g, PageRank(max_iterations=5))
        # No in-edges anywhere: every vertex holds the base rank.
        assert np.allclose(run.result_property(), 0.15 / 5)
