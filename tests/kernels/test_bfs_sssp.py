"""BFS and SSSP correctness through the engine."""

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, path_graph, ring_graph
from repro.kernels.bfs import BFS
from repro.kernels.sssp import SSSP
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference


def run_engine(graph, kernel, source, sim_cls=DisaggregatedSimulator):
    sim = sim_cls(SystemConfig(num_memory_nodes=4))
    return sim.run(graph, kernel, source=source)


class TestBFS:
    def test_path(self):
        g = path_graph(6, directed=True)
        run = run_engine(g, BFS(), 0)
        assert list(run.result_property()) == [0, 1, 2, 3, 4, 5]

    def test_unreachable(self):
        g = path_graph(6, directed=True)
        run = run_engine(g, BFS(), 3)
        levels = run.result_property()
        assert list(levels[:3]) == [-1, -1, -1]
        assert list(levels[3:]) == [0, 1, 2]

    def test_matches_reference(self, tiny_rmat):
        src = int(tiny_rmat.out_degrees.argmax())
        run = run_engine(tiny_rmat, BFS(), src)
        assert np.array_equal(run.result_property(), reference.bfs(tiny_rmat, src))

    def test_parents_form_tree(self, tiny_er):
        run = run_engine(tiny_er, BFS(), 0)
        state = run.final_state
        levels = state.prop("level")
        parents = state.prop("parent")
        for v in range(tiny_er.num_vertices):
            if levels[v] > 0:
                assert levels[parents[v]] == levels[v] - 1
                assert v in tiny_er.neighbors(int(parents[v]))

    def test_frontier_shrinks_to_zero(self, tiny_er):
        run = run_engine(tiny_er, BFS(), 0)
        assert run.converged
        assert run.iterations[-1].frontier_size >= 1

    def test_same_result_on_ndp_arch(self, tiny_rmat):
        src = 0
        base = run_engine(tiny_rmat, BFS(), src)
        ndp = run_engine(tiny_rmat, BFS(), src, DisaggregatedNDPSimulator)
        assert np.array_equal(base.result_property(), ndp.result_property())

    def test_single_vertex(self):
        g = CSRGraph.empty(1)
        run = run_engine(g, BFS(), 0)
        assert list(run.result_property()) == [0]


class TestSSSP:
    def test_unit_weights_match_bfs(self, tiny_rmat):
        src = 0
        dist = run_engine(tiny_rmat, SSSP(), src).result_property()
        levels = reference.bfs(tiny_rmat, src)
        finite = np.isfinite(dist)
        assert np.array_equal(np.nonzero(finite)[0], np.nonzero(levels >= 0)[0])
        assert np.allclose(dist[finite], levels[levels >= 0])

    def test_matches_dijkstra_weighted(self, weighted_er):
        src = 0
        run = run_engine(weighted_er, SSSP(), src)
        expected = reference.sssp(weighted_er, src)
        assert reference.compare_distances(run.result_property(), expected)

    def test_weighted_path(self):
        g = CSRGraph.from_edges(
            [0, 1, 0], [1, 2, 2], 3, weights=[1.0, 1.0, 5.0]
        )
        run = run_engine(g, SSSP(), 0)
        assert list(run.result_property()) == [0.0, 1.0, 2.0]

    def test_unreachable_is_inf(self):
        g = path_graph(4, directed=True)
        dist = run_engine(g, SSSP(), 2).result_property()
        assert np.isinf(dist[0]) and np.isinf(dist[1])
        assert dist[2] == 0.0

    def test_source_distance_zero(self, weighted_er):
        dist = run_engine(weighted_er, SSSP(), 5).result_property()
        assert dist[5] == 0.0

    def test_triangle_relaxation(self):
        # Longer hop count but cheaper total weight must win.
        g = CSRGraph.from_edges(
            [0, 0, 1, 2], [1, 3, 2, 3], 4, weights=[1.0, 10.0, 1.0, 1.0]
        )
        dist = run_engine(g, SSSP(), 0).result_property()
        assert dist[3] == 3.0

    def test_ndp_arch_identical(self, weighted_er):
        base = run_engine(weighted_er, SSSP(), 0)
        ndp = run_engine(weighted_er, SSSP(), 0, DisaggregatedNDPSimulator)
        assert reference.compare_distances(
            base.result_property(), ndp.result_property()
        )

    def test_frontier_decays(self, weighted_er):
        run = run_engine(weighted_er, SSSP(), 0)
        fronts = run.per_iteration_frontier()
        assert fronts[0] == 1
        assert run.converged

    def test_reference_source_validation(self, weighted_er):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            reference.sssp(weighted_er, -1)
