"""Tests for the paper-graph stand-ins: the properties that drive the
reproduction must hold at every tier."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.datasets import (
    get_spec,
    list_datasets,
    load_dataset,
    TIER_SHIFT,
)
from support.graph_stats import compute_stats


class TestRegistry:
    def test_all_four_paper_graphs_present(self):
        names = list_datasets()
        for expected in (
            "twitter7-sim",
            "uk2005-sim",
            "livejournal-sim",
            "wikitalk-sim",
        ):
            assert expected in names

    def test_get_spec_unknown(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            get_spec("nope")

    def test_spec_metadata_matches_paper(self):
        spec = get_spec("twitter7-sim")
        assert spec.paper_vertices == 41_000_000
        assert spec.paper_edges == 1_400_000_000
        assert spec.paper_edges / spec.paper_vertices == pytest.approx(34.1, abs=0.2)

    def test_wikitalk_paper_degree_is_sparse(self):
        spec = get_spec("wikitalk-sim")
        assert spec.paper_edges / spec.paper_vertices < 3


class TestLoading:
    def test_deterministic(self):
        a, _ = load_dataset("livejournal-sim", tier="tiny", seed=3)
        b, _ = load_dataset("livejournal-sim", tier="tiny", seed=3)
        assert a == b

    def test_seed_changes_graph(self):
        a, _ = load_dataset("livejournal-sim", tier="tiny", seed=3)
        b, _ = load_dataset("livejournal-sim", tier="tiny", seed=4)
        assert a != b

    def test_tiers_scale(self):
        tiny, _ = load_dataset("twitter7-sim", tier="tiny", seed=1)
        small, _ = load_dataset("twitter7-sim", tier="small", seed=1)
        shift = TIER_SHIFT["small"] - TIER_SHIFT["tiny"]
        assert small.num_vertices == tiny.num_vertices << shift

    def test_unknown_tier(self):
        with pytest.raises(GraphError, match="tier"):
            load_dataset("twitter7-sim", tier="giant")

    def test_scale_shift(self):
        base, _ = load_dataset("wikitalk-sim", tier="tiny", seed=1)
        bigger, _ = load_dataset("wikitalk-sim", tier="tiny", seed=1, scale_shift=1)
        assert bigger.num_vertices == 2 * base.num_vertices

    def test_too_small_rejected(self):
        with pytest.raises(GraphError, match="too small"):
            load_dataset("livejournal-sim", tier="tiny", scale_shift=-10)


class TestStructuralProperties:
    """The properties the reproduction's figures depend on."""

    def test_wikitalk_is_sparse(self):
        g, _ = load_dataset("wikitalk-sim", tier="small", seed=7)
        avg = g.num_edges / g.num_vertices
        # The Fig. 5 anomaly needs avg out-degree well under the ~3-4
        # fetch/offload break-even point.
        assert avg < 3.0

    def test_wikitalk_is_skewed(self):
        g, _ = load_dataset("wikitalk-sim", tier="small", seed=7)
        stats = compute_stats(g)
        assert stats.gini_out_degree > 0.7
        assert stats.skew_ratio > 20

    def test_twitter_is_dense_and_skewed(self):
        g, _ = load_dataset("twitter7-sim", tier="small", seed=7)
        stats = compute_stats(g)
        assert stats.avg_out_degree > 15
        assert stats.gini_out_degree > 0.5

    def test_dense_graphs_clear_breakeven(self):
        # All three dense stand-ins must clear the offload break-even degree.
        for name in ("twitter7-sim", "uk2005-sim", "livejournal-sim"):
            g, _ = load_dataset(name, tier="small", seed=7)
            assert g.num_edges / g.num_vertices > 6, name

    def test_livejournal_has_communities(self):
        # METIS must find a much better cut than hashing (Fig. 6's premise).
        from repro.partition import HashPartitioner, MetisPartitioner, edge_cut

        g, _ = load_dataset("livejournal-sim", tier="tiny", seed=7)
        hash_cut = edge_cut(g, HashPartitioner().partition(g, 4, seed=1))
        metis_cut = edge_cut(g, MetisPartitioner().partition(g, 4, seed=1))
        assert metis_cut < 0.6 * hash_cut

    def test_all_datasets_are_directed_and_loop_free(self):
        for name in list_datasets():
            g, _ = load_dataset(name, tier="tiny", seed=7)
            src, dst = g.edge_array()
            assert not np.any(src == dst), name

    def test_graphs_are_nontrivially_connected(self):
        from support.traversal import weak_component_labels

        for name in ("twitter7-sim", "uk2005-sim", "livejournal-sim"):
            g, _ = load_dataset(name, tier="tiny", seed=7)
            labels = weak_component_labels(g)
            largest = np.bincount(labels).max()
            assert largest > 0.5 * g.num_vertices, name
