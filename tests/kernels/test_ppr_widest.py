"""Personalized PageRank and widest-path kernels through the engine."""

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.csr import CSRGraph
from repro.graph.generators import path_graph, ring_graph
from repro.kernels.ppr import PersonalizedPageRank
from repro.kernels.widest_path import WidestPath
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference


def run_engine(graph, kernel, source, sim_cls=DisaggregatedSimulator):
    sim = sim_cls(SystemConfig(num_memory_nodes=4))
    return sim.run(graph, kernel, source=source)


class TestPersonalizedPageRank:
    def test_matches_reference(self, tiny_rmat):
        src = int(tiny_rmat.out_degrees.argmax())
        run = run_engine(tiny_rmat, PersonalizedPageRank(max_iterations=30), src)
        expected = reference.personalized_pagerank(
            tiny_rmat, src, max_iterations=30
        )
        assert np.allclose(run.result_property(), expected)

    def test_mass_concentrated_at_source(self, tiny_rmat):
        src = int(tiny_rmat.out_degrees.argmax())
        run = run_engine(tiny_rmat, PersonalizedPageRank(max_iterations=30), src)
        ranks = run.result_property()
        assert ranks.argmax() == src

    def test_unreachable_vertices_zero(self):
        g = path_graph(6, directed=True)
        run = run_engine(g, PersonalizedPageRank(max_iterations=30), 3)
        ranks = run.result_property()
        assert np.all(ranks[:3] == 0)
        assert ranks[3] > 0

    def test_frontier_localized_early(self, tiny_rmat):
        src = 0
        run = run_engine(tiny_rmat, PersonalizedPageRank(max_iterations=10), src)
        fronts = run.per_iteration_frontier()
        assert fronts[0] == 1
        # frontier can only include vertices already holding rank mass
        assert fronts[1] <= 1 + tiny_rmat.out_degrees[src]

    def test_converges(self, tiny_er):
        run = run_engine(tiny_er, PersonalizedPageRank(max_iterations=200), 0)
        assert run.converged

    def test_threshold_prunes_frontier(self, tiny_rmat):
        src = int(tiny_rmat.out_degrees.argmax())
        dense = run_engine(
            tiny_rmat, PersonalizedPageRank(max_iterations=5), src
        )
        pruned = run_engine(
            tiny_rmat,
            PersonalizedPageRank(max_iterations=5, active_threshold=1e-4),
            src,
        )
        assert (
            pruned.per_iteration_frontier()[-1]
            <= dense.per_iteration_frontier()[-1]
        )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PersonalizedPageRank(damping=1.5)
        with pytest.raises(ValueError):
            PersonalizedPageRank(active_threshold=-1)

    def test_same_on_ndp_arch(self, tiny_rmat):
        src = 0
        a = run_engine(tiny_rmat, PersonalizedPageRank(max_iterations=10), src)
        b = run_engine(
            tiny_rmat, PersonalizedPageRank(max_iterations=10), src,
            DisaggregatedNDPSimulator,
        )
        assert np.allclose(a.result_property(), b.result_property())


class TestWidestPath:
    def test_matches_reference(self, weighted_er):
        run = run_engine(weighted_er, WidestPath(), 0)
        expected = reference.widest_path(weighted_er, 0)
        got = run.result_property()
        finite = np.isfinite(expected)
        assert np.allclose(got[finite], expected[finite])
        assert np.array_equal(np.isinf(got), np.isinf(expected))

    def test_bottleneck_semantics(self):
        # 0 -> 1 -> 3 widths min(5, 2) = 2; 0 -> 2 -> 3 widths min(1, 9) = 1.
        g = CSRGraph.from_edges(
            [0, 1, 0, 2], [1, 3, 2, 3], 4, weights=[5.0, 2.0, 1.0, 9.0]
        )
        widths = run_engine(g, WidestPath(), 0).result_property()
        assert widths[3] == 2.0
        assert widths[1] == 5.0
        assert widths[2] == 1.0

    def test_source_is_infinite(self, weighted_er):
        widths = run_engine(weighted_er, WidestPath(), 7).result_property()
        assert np.isinf(widths[7])

    def test_unreachable_zero(self):
        g = path_graph(4, directed=True).with_uniform_weights(3.0)
        widths = run_engine(g, WidestPath(), 2).result_property()
        assert widths[0] == 0.0 and widths[1] == 0.0
        assert widths[3] == 3.0

    def test_unweighted_graph_defaults_to_unit(self, tiny_er):
        widths = run_engine(tiny_er, WidestPath(), 0).result_property()
        reachable = widths > 0
        assert np.all(widths[reachable & ~np.isinf(widths)] == 1.0)

    def test_ring_width_is_min_edge(self):
        g = ring_graph(6, directed=True)
        w = np.arange(1.0, 7.0)
        g = CSRGraph(g.indptr, g.indices, w)
        widths = run_engine(g, WidestPath(), 0).result_property()
        # reaching vertex k uses edges 1..k: width = min of those
        assert widths[3] == 1.0

    def test_max_reduce_used(self):
        assert WidestPath().message.reduce == "max"

    def test_registry(self):
        from repro.kernels.registry import get_kernel

        assert get_kernel("ppr").name == "ppr"
        assert get_kernel("widest-path").name == "widest-path"
