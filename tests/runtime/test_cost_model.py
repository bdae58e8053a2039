"""Unit tests for the analytic movement cost model."""

import numpy as np
import pytest

from repro.kernels.bfs import BFS
from repro.kernels.pagerank import PageRank
from repro.kernels.sssp import SSSP
from repro.net.switch import SwitchModel
from repro.hardware.catalog import SHARP_SWITCH
from repro.runtime.cost_model import (
    edge_record_bytes,
    estimate_distinct_destinations,
    estimate_movement,
    exact_movement,
    frontier_push_bytes,
)


class TestFrontierPushBytes:
    def test_value_kernels_pay_prop_push(self):
        assert frontier_push_bytes(
            PageRank(), 100, num_vertices=10_000, num_parts=8
        ) == 16 * 100

    def test_membership_kernel_sparse_frontier_ships_ids(self):
        # 10 ids (80 B) beat a bitmap broadcast (8 x 1250 B).
        assert frontier_push_bytes(
            BFS(), 10, num_vertices=10_000, num_parts=8
        ) == 8 * 10

    def test_membership_kernel_dense_frontier_ships_bitmap(self):
        # 5000 ids (40 KB) lose to the bitmap broadcast (8 x 1250 B).
        assert frontier_push_bytes(
            BFS(), 5000, num_vertices=10_000, num_parts=8
        ) == 8 * 1250

    def test_fallback_without_graph_info(self):
        assert frontier_push_bytes(BFS(), 100) == BFS().prop_push_bytes * 100

    def test_bitmap_rounds_up(self):
        assert frontier_push_bytes(
            BFS(), 10_000, num_vertices=9, num_parts=1
        ) == 2


class TestEdgeRecordBytes:
    def test_unweighted_is_8(self):
        assert edge_record_bytes(PageRank()) == 8

    def test_weighted_is_16(self):
        assert edge_record_bytes(SSSP()) == 16


class TestExactMovement:
    def test_pagerank_formulas(self):
        kernel = PageRank()
        est = exact_movement(
            kernel,
            frontier_size=100,
            edges_traversed=1000,
            partial_pairs=300,
            distinct_destinations=150,
        )
        assert est.fetch_bytes == 8 * 100 + 8 * 1000
        assert est.offload_bytes == 16 * 100 + 16 * 300
        assert est.offload_inc_bytes == 16 * 100 + 16 * 150

    def test_offload_wins_flag(self):
        kernel = PageRank()
        dense = exact_movement(
            kernel,
            frontier_size=10,
            edges_traversed=10_000,
            partial_pairs=20,
            distinct_destinations=20,
        )
        assert dense.offload_bytes < dense.fetch_bytes
        sparse = exact_movement(
            kernel,
            frontier_size=100,
            edges_traversed=150,
            partial_pairs=140,
            distinct_destinations=140,
        )
        assert sparse.offload_bytes >= sparse.fetch_bytes

    def test_best_selector(self):
        kernel = PageRank()
        est = exact_movement(
            kernel,
            frontier_size=10,
            edges_traversed=1000,
            partial_pairs=400,
            distinct_destinations=50,
        )
        assert est.best() == "offload"
        assert est.best(inc_available=True) == "offload+inc"

    def test_switch_buffer_respected(self):
        kernel = PageRank()
        switch = SwitchModel(SHARP_SWITCH, buffer_bytes=32, slot_bytes=32)
        est = exact_movement(
            kernel,
            frontier_size=0,
            edges_traversed=1000,
            partial_pairs=400,
            distinct_destinations=100,
            switch=switch,
            updates_per_destination=np.full(100, 4.0),
        )
        # Only one destination fits the table: 4 merge to 1, 396 pass.
        assert est.offload_inc_bytes == 16 * (1 + 396)


class TestOccupancyEstimate:
    def test_zero_cases(self):
        assert estimate_distinct_destinations(0, 100) == 0.0
        assert estimate_distinct_destinations(100, 0) == 0.0

    def test_small_load_is_nearly_linear(self):
        est = estimate_distinct_destinations(10, 10_000)
        assert est == pytest.approx(10, rel=0.01)

    def test_saturates_at_n(self):
        assert estimate_distinct_destinations(1e9, 100) == pytest.approx(100)

    def test_monotone(self):
        values = [estimate_distinct_destinations(e, 1000) for e in (10, 100, 1000)]
        assert values == sorted(values)

    def test_matches_uniform_simulation(self):
        rng = np.random.default_rng(0)
        n, e = 1000, 1500
        draws = [np.unique(rng.integers(0, n, e)).size for _ in range(50)]
        assert estimate_distinct_destinations(e, n) == pytest.approx(
            np.mean(draws), rel=0.03
        )


class TestEstimateMovement:
    def test_uniform_split_default(self):
        kernel = PageRank()
        est = estimate_movement(
            kernel,
            frontier_size=100,
            edges_traversed=800,
            num_vertices=10_000,
            num_parts=4,
        )
        per_part = estimate_distinct_destinations(200, 10_000)
        assert est.offload_bytes == pytest.approx(16 * 100 + 16 * 4 * per_part)

    def test_edges_per_part_honored(self):
        kernel = PageRank()
        est_even = estimate_movement(
            kernel,
            frontier_size=0,
            edges_traversed=1000,
            num_vertices=500,
            num_parts=2,
            edges_per_part=np.array([500, 500]),
        )
        est_skew = estimate_movement(
            kernel,
            frontier_size=0,
            edges_traversed=1000,
            num_vertices=500,
            num_parts=2,
            edges_per_part=np.array([1000, 0]),
        )
        # Concentrating edges on one node collapses more duplicates.
        assert est_skew.offload_bytes < est_even.offload_bytes

    def test_fetch_independent_of_parts(self):
        kernel = PageRank()
        a = estimate_movement(
            kernel, frontier_size=10, edges_traversed=100,
            num_vertices=1000, num_parts=2,
        )
        b = estimate_movement(
            kernel, frontier_size=10, edges_traversed=100,
            num_vertices=1000, num_parts=64,
        )
        assert a.fetch_bytes == b.fetch_bytes
        assert b.offload_bytes >= a.offload_bytes  # distribution penalty
