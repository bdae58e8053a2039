"""Unit tests for the from-scratch multilevel METIS partitioner."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, grid_graph, ring_graph, star_graph
from repro.partition import HashPartitioner, MetisPartitioner, edge_cut
from repro.partition.base import balance_ratio
from repro.partition.metis import (
    WorkGraph,
    bisection_cut,
    coarsen,
    greedy_growing_bisection,
    fm_refine,
    heavy_edge_matching,
)
from repro.partition.metis.refine import rebalance, side_gains
from repro.partition.metis.wgraph import build, from_csr, induced_subgraph
from support.metis import matching_is_valid, validate_work_graph


@pytest.fixture
def wg_grid():
    return from_csr(grid_graph(8, 8))


@pytest.fixture
def wg_ring():
    return from_csr(ring_graph(16))


class TestWorkGraph:
    def test_from_csr_symmetric(self, tiny_rmat):
        wg = from_csr(tiny_rmat)
        validate_work_graph(wg)

    def test_from_csr_merges_bidirectional_edges(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        wg = from_csr(g)
        # one undirected edge, weight 2 (both directions merged)
        assert wg.num_edges == 2
        assert np.all(wg.eweights == 2)

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([0, 0], [0, 1], 2)
        wg = from_csr(g)
        src = np.repeat(np.arange(2), np.diff(wg.indptr))
        assert not np.any(src == wg.indices)

    def test_vertex_weights_start_at_one(self, wg_grid):
        assert np.all(wg_grid.vweights == 1)

    def test_neighbors(self, wg_ring):
        nbrs, w = wg_ring.neighbors(0)
        assert sorted(nbrs.tolist()) == [1, 15]
        assert np.all(w >= 1)

    def test_induced_subgraph(self, wg_grid):
        sub, ids = induced_subgraph(wg_grid, np.arange(16))
        validate_work_graph(sub)
        assert sub.num_vertices == 16
        assert np.array_equal(ids, np.arange(16))

    def test_build_merges_parallel_edges(self):
        wg = build(
            3,
            np.array([0, 0, 1, 1]),
            np.array([1, 1, 0, 0]),
            np.array([1, 2, 1, 2]),
            np.ones(3, dtype=np.int64),
        )
        assert wg.num_edges == 2
        assert np.all(wg.eweights == 3)


class TestMatching:
    def test_valid_involution(self, wg_grid):
        match = heavy_edge_matching(wg_grid, seed=1)
        assert matching_is_valid(match)

    def test_matches_along_edges(self, wg_grid):
        match = heavy_edge_matching(wg_grid, seed=2)
        for u in range(wg_grid.num_vertices):
            v = match[u]
            if v != u:
                nbrs, _ = wg_grid.neighbors(u)
                assert v in nbrs

    def test_prefers_heavy_edges(self):
        # Triangle with one heavy edge (0-1, weight 10).  Whenever vertex 0
        # or 1 is visited first (2/3 of random orders) the heavy edge is
        # matched; across seeds it must win a clear majority.
        wg = build(
            3,
            np.array([0, 1, 0, 2, 1, 2]),
            np.array([1, 0, 2, 0, 2, 1]),
            np.array([10, 10, 1, 1, 1, 1]),
            np.ones(3, dtype=np.int64),
        )
        wins = sum(
            heavy_edge_matching(wg, seed=s)[0] == 1 for s in range(24)
        )
        assert wins >= 12

    def test_matching_halves_most_vertices(self, wg_grid):
        match = heavy_edge_matching(wg_grid, seed=3)
        matched = np.count_nonzero(match != np.arange(wg_grid.num_vertices))
        assert matched >= 0.7 * wg_grid.num_vertices

    def test_isolated_vertices_self_match(self):
        wg = build(
            3, np.array([0, 1]), np.array([1, 0]), np.array([1, 1]),
            np.ones(3, dtype=np.int64),
        )
        match = heavy_edge_matching(wg, seed=0)
        assert match[2] == 2


class TestCoarsen:
    def test_weights_conserved(self, wg_grid):
        match = heavy_edge_matching(wg_grid, seed=1)
        coarse, cmap = coarsen(wg_grid, match)
        validate_work_graph(coarse)
        assert coarse.total_vweight == wg_grid.total_vweight
        assert cmap.size == wg_grid.num_vertices
        assert cmap.max() == coarse.num_vertices - 1

    def test_matched_pairs_merge(self, wg_ring):
        match = heavy_edge_matching(wg_ring, seed=5)
        _, cmap = coarsen(wg_ring, match)
        for u in range(wg_ring.num_vertices):
            assert cmap[u] == cmap[match[u]]

    def test_cut_preserved_under_projection(self, wg_grid):
        # Any coarse bisection projects to a fine bisection of equal cut.
        match = heavy_edge_matching(wg_grid, seed=1)
        coarse, cmap = coarsen(wg_grid, match)
        rng = np.random.default_rng(0)
        cside = rng.random(coarse.num_vertices) < 0.5
        assert bisection_cut(coarse, cside) == bisection_cut(wg_grid, cside[cmap])

    def test_identity_match_is_noop(self, wg_ring):
        n = wg_ring.num_vertices
        coarse, cmap = coarsen(wg_ring, np.arange(n))
        assert coarse.num_vertices == n
        assert np.array_equal(cmap, np.arange(n))


class TestBisection:
    def test_grow_respects_target(self, wg_grid):
        side = greedy_growing_bisection(wg_grid, 0.5, seed=1)
        frac = wg_grid.vweights[side].sum() / wg_grid.total_vweight
        assert 0.35 <= frac <= 0.65

    @staticmethod
    def _unit_ring(n):
        # A ring WorkGraph with unit edge weights (from_csr on the
        # undirected generator would merge both directions to weight 2).
        base = np.arange(n, dtype=np.int64)
        nxt = (base + 1) % n
        return build(
            n,
            np.concatenate([base, nxt]),
            np.concatenate([nxt, base]),
            np.ones(2 * n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
        )

    def test_cut_helper(self):
        wg = self._unit_ring(8)
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        assert bisection_cut(wg, side) == 2  # a ring cut in two places

    def test_side_gains_definition(self):
        wg = self._unit_ring(8)
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        gains = side_gains(wg, side)
        # boundary vertices 0,3: one internal, one external edge -> gain 0
        assert gains[0] == 0 and gains[3] == 0
        # interior vertices: two internal edges -> gain -2
        assert gains[1] == -2 and gains[5] == -2

    def test_fm_improves_or_keeps_cut(self, wg_grid):
        rng = np.random.default_rng(3)
        side = rng.random(wg_grid.num_vertices) < 0.5
        before = bisection_cut(wg_grid, side)
        refined = fm_refine(wg_grid, side, 0.5)
        after = bisection_cut(wg_grid, refined)
        assert after <= before

    def test_fm_keeps_reasonable_balance(self, wg_grid):
        rng = np.random.default_rng(4)
        side = rng.random(wg_grid.num_vertices) < 0.5
        refined = fm_refine(wg_grid, side, 0.5)
        frac = wg_grid.vweights[refined].sum() / wg_grid.total_vweight
        assert 0.3 <= frac <= 0.7

    def test_rebalance_restores_target(self, wg_grid):
        side = np.zeros(wg_grid.num_vertices, dtype=bool)
        side[:5] = True  # badly unbalanced
        fixed = rebalance(wg_grid, side, 0.5)
        frac = wg_grid.vweights[fixed].sum() / wg_grid.total_vweight
        assert 0.35 <= frac <= 0.65

    def test_rebalance_terminates_with_heavy_vertices(self):
        # One vertex heavier than the slack must not cause oscillation.
        wg = build(
            4,
            np.array([0, 1, 1, 2, 2, 3, 3, 0]),
            np.array([1, 0, 2, 1, 3, 2, 0, 3]),
            np.ones(8, dtype=np.int64),
            np.array([10, 1, 1, 1], dtype=np.int64),
        )
        side = np.array([True, True, True, True])
        fixed = rebalance(wg, side, 0.5)
        assert fixed.dtype == bool  # converged and returned


class TestMetisPartitioner:
    def test_contract(self, tiny_rmat):
        a = MetisPartitioner().partition(tiny_rmat, 5, seed=1)
        assert a.num_parts == 5
        assert a.num_vertices == tiny_rmat.num_vertices
        assert np.unique(a.parts).size == 5

    def test_grid_cut_near_optimal(self):
        g = grid_graph(16, 16)
        a = MetisPartitioner().partition(g, 4, seed=0)
        # optimal 4-way cut of a 16x16 grid is 32 undirected edges
        assert edge_cut(g, a) // 2 <= 64
        assert balance_ratio(a) <= 1.35

    def test_beats_hash_on_structured_graph(self, lj_tiny):
        metis_cut = edge_cut(lj_tiny, MetisPartitioner().partition(lj_tiny, 8, seed=1))
        hash_cut = edge_cut(lj_tiny, HashPartitioner().partition(lj_tiny, 8))
        assert metis_cut < 0.6 * hash_cut

    def test_non_power_of_two_parts(self, lj_tiny):
        a = MetisPartitioner().partition(lj_tiny, 7, seed=2)
        assert a.num_parts == 7
        assert np.unique(a.parts).size == 7
        assert balance_ratio(a) < 1.6

    def test_deterministic(self, lj_tiny):
        a = MetisPartitioner().partition(lj_tiny, 4, seed=5)
        b = MetisPartitioner().partition(lj_tiny, 4, seed=5)
        assert a == b

    def test_single_part(self, tiny_er):
        a = MetisPartitioner().partition(tiny_er, 1)
        assert np.all(a.parts == 0)

    def test_two_cliques_found(self):
        # Two 8-cliques joined by one edge: the natural bisection.
        import itertools

        edges = [(u, v) for u, v in itertools.permutations(range(8), 2)]
        edges += [(u + 8, v + 8) for u, v in edges]
        edges.append((0, 8))
        src, dst = zip(*edges)
        g = CSRGraph.from_edges(np.array(src), np.array(dst), 16)
        a = MetisPartitioner().partition(g, 2, seed=1)
        assert edge_cut(g, a) <= 2  # just the bridge (counted <=2 directed)

    def test_star_graph_stall_guard(self):
        # Stars defeat matching (everything matches the hub); the stall
        # guard must still produce a valid partition.
        a = MetisPartitioner().partition(star_graph(64), 4, seed=1)
        assert a.sizes().sum() == 65

    def test_disconnected_graph(self):
        g1 = ring_graph(10)
        src, dst = g1.edge_array()
        g = CSRGraph.from_edges(
            np.concatenate([src, src + 10]), np.concatenate([dst, dst + 10]), 20
        )
        a = MetisPartitioner().partition(g, 2, seed=3)
        assert a.sizes().min() >= 6

    def test_options_validation(self):
        with pytest.raises(ValueError):
            MetisPartitioner(coarsen_to=1)
        with pytest.raises(ValueError):
            MetisPartitioner(balance="bytes")

    def test_edge_balance_mode(self, twitter_tiny):
        from repro.partition.base import edge_balance_ratio

        by_vertices = MetisPartitioner(balance="vertices").partition(
            twitter_tiny, 8, seed=1
        )
        by_edges = MetisPartitioner(balance="edges").partition(
            twitter_tiny, 8, seed=1
        )
        # Edge-weighted vertex weights even out the stored CSR shards.
        assert edge_balance_ratio(twitter_tiny, by_edges) < edge_balance_ratio(
            twitter_tiny, by_vertices
        )

    def test_random_graph_quality_sane(self):
        # Even on unstructured graphs METIS must not be *worse* than hash.
        g = erdos_renyi(400, 3000, seed=2)
        metis_cut = edge_cut(g, MetisPartitioner().partition(g, 4, seed=1))
        hash_cut = edge_cut(g, HashPartitioner().partition(g, 4))
        assert metis_cut <= 1.05 * hash_cut
