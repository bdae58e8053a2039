"""Connected components, degree centrality, and k-core through the engine."""

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    ring_graph,
    star_graph,
)
from repro.kernels.cc import ConnectedComponents
from repro.kernels.degree import DegreeCentrality
from repro.kernels.kcore import KCore
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference


def run_engine(graph, kernel, **kwargs):
    sim = DisaggregatedSimulator(SystemConfig(num_memory_nodes=4))
    return sim.run(graph, kernel, **kwargs)


class TestConnectedComponents:
    def test_two_components(self):
        r = ring_graph(5)
        src, dst = r.edge_array()
        g = CSRGraph.from_edges(
            np.concatenate([src, src + 5]), np.concatenate([dst, dst + 5]), 10
        )
        labels = run_engine(g, ConnectedComponents()).result_property()
        assert np.all(labels[:5] == 0)
        assert np.all(labels[5:] == 5)

    def test_matches_reference(self, tiny_rmat):
        labels = run_engine(tiny_rmat, ConnectedComponents()).result_property()
        assert np.array_equal(labels, reference.connected_components(tiny_rmat))

    def test_directed_edges_weakly_connected(self):
        g = CSRGraph.from_edges([0, 2], [1, 1], 3)  # 0->1<-2 weak chain
        labels = run_engine(g, ConnectedComponents()).result_property()
        assert np.unique(labels).size == 1

    def test_isolated_vertices_self_labeled(self):
        g = CSRGraph.from_edges([0], [1], 4)
        labels = run_engine(g, ConnectedComponents()).result_property()
        assert labels[2] == 2 and labels[3] == 3

    def test_converges(self, tiny_er):
        run = run_engine(tiny_er, ConnectedComponents())
        assert run.converged

    def test_label_is_min_vertex_id(self, tiny_er):
        labels = run_engine(tiny_er, ConnectedComponents()).result_property()
        for comp in np.unique(labels):
            members = np.nonzero(labels == comp)[0]
            assert comp == members.min()


class TestDegreeCentrality:
    def test_matches_in_degrees(self, tiny_rmat):
        result = run_engine(tiny_rmat, DegreeCentrality()).result_property()
        assert np.array_equal(result, tiny_rmat.in_degrees)

    def test_single_iteration(self, tiny_er):
        run = run_engine(tiny_er, DegreeCentrality())
        assert run.num_iterations == 1
        assert run.converged

    def test_star(self):
        result = run_engine(star_graph(6), DegreeCentrality()).result_property()
        assert result[0] == 0
        assert np.all(result[1:] == 1)


class TestKCore:
    def test_matches_reference(self, tiny_rmat):
        for k in (2, 4, 8):
            run = run_engine(tiny_rmat, KCore(k=k))
            assert np.array_equal(
                run.result_property(), reference.kcore(tiny_rmat, k)
            ), f"k={k}"

    def test_complete_graph_is_its_own_core(self):
        g = complete_graph(6)  # undirected degree 10 after symmetrize
        core = run_engine(g, KCore(k=5)).result_property()
        assert core.all()

    def test_path_has_no_2core(self):
        core = run_engine(path_graph(6), KCore(k=2)).result_property()
        assert not core.any()

    def test_ring_is_2core(self):
        core = run_engine(ring_graph(6), KCore(k=2)).result_property()
        assert core.all()

    def test_k1_keeps_non_isolated(self):
        g = CSRGraph.from_edges([0], [1], 4)
        core = run_engine(g, KCore(k=1)).result_property()
        assert list(core) == [True, True, False, False]

    def test_cascade(self):
        # Clique of 4 with a pendant chain: the chain peels away level by
        # level, the clique survives k=3.
        clique = [(u, v) for u in range(4) for v in range(4) if u != v]
        chain = [(3, 4), (4, 5)]
        src, dst = zip(*(clique + chain))
        g = CSRGraph.from_edges(np.array(src), np.array(dst), 6)
        core = run_engine(g, KCore(k=3)).result_property()
        assert list(core) == [True, True, True, True, False, False]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KCore(k=0)
