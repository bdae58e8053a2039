"""Unit tests for the offload policies."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels.pagerank import PageRank
from repro.runtime.offload import (
    AdaptiveOffloadPolicy,
    AlwaysOffload,
    DynamicCostPolicy,
    IterationOutlook,
    NeverOffload,
    OraclePolicy,
    ThresholdPolicy,
    check_policy_name,
    get_policy,
    list_policies,
)


def outlook(
    frontier=100,
    edges=1000,
    n=10_000,
    parts=4,
    exact_pairs=None,
    exact_distinct=None,
):
    return IterationOutlook(
        iteration=0,
        frontier_size=frontier,
        edges_traversed=edges,
        num_vertices=n,
        num_parts=parts,
        edges_per_part=np.full(parts, edges / parts),
        frontier_per_part=np.full(parts, frontier / parts),
        exact_partial_pairs=exact_pairs,
        exact_distinct_destinations=exact_distinct,
    )


def observe(policy, o, *, pairs=0, distinct=0, host_link_bytes=0.0, mask=None):
    """Feed one iteration's realized counts and ledger bytes back."""
    if mask is None:
        mask = np.zeros(o.num_parts, dtype=bool)
    return policy.observe(
        o,
        partial_pairs=pairs,
        distinct_destinations=distinct,
        host_link_bytes=host_link_bytes,
        offloaded_mask=mask,
    )


class TestStaticPolicies:
    def test_always(self):
        assert AlwaysOffload().decide(PageRank(), outlook())

    def test_never(self):
        assert not NeverOffload().decide(PageRank(), outlook())


class TestThresholdPolicy:
    def test_dense_frontier_offloads(self):
        policy = ThresholdPolicy(min_avg_degree=4.0)
        assert policy.decide(PageRank(), outlook(frontier=10, edges=100))

    def test_sparse_frontier_fetches(self):
        policy = ThresholdPolicy(min_avg_degree=4.0)
        assert not policy.decide(PageRank(), outlook(frontier=100, edges=200))

    def test_empty_frontier(self):
        policy = ThresholdPolicy()
        assert not policy.decide(PageRank(), outlook(frontier=0, edges=0))

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(min_avg_degree=-1)

    def test_avg_degree_property(self):
        assert outlook(frontier=10, edges=100).avg_frontier_degree == 10.0
        assert outlook(frontier=0, edges=0).avg_frontier_degree == 0.0


class TestDynamicPolicy:
    def test_dense_graph_offloads(self):
        # Heavy duplication: 50k edges into 2k vertices — the estimated
        # distinct destinations are far below the edge count.
        policy = DynamicCostPolicy()
        assert policy.decide(
            PageRank(), outlook(frontier=100, edges=50_000, n=2000)
        )

    def test_sparse_graph_fetches(self):
        policy = DynamicCostPolicy()
        assert not policy.decide(
            PageRank(), outlook(frontier=1000, edges=1800, n=2000)
        )

    def test_calibration_shifts_decision(self):
        # Estimator thinks offload loses; observations reveal far fewer
        # actual pairs, so after feedback the decision flips.
        policy = DynamicCostPolicy(ema_alpha=1.0)
        o = outlook(frontier=1000, edges=4000, n=2000, parts=8)
        assert not policy.decide(PageRank(), o)
        assert not observe(policy, o, pairs=100, distinct=80)
        assert policy.decide(PageRank(), o)

    def test_calibration_can_be_disabled(self):
        policy = DynamicCostPolicy(calibrate=False)
        o = outlook(frontier=1000, edges=4000, n=2000, parts=8)
        before = policy.decide(PageRank(), o)
        observe(policy, o, pairs=1, distinct=1)
        assert policy.decide(PageRank(), o) == before

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            DynamicCostPolicy(ema_alpha=0.0)


class TestOraclePolicy:
    def test_requires_exact_fields(self):
        with pytest.raises(ConfigError, match="exact counts"):
            OraclePolicy().decide(PageRank(), outlook())

    def test_decides_from_exact_counts(self):
        policy = OraclePolicy()
        win = outlook(frontier=10, edges=10_000, exact_pairs=50, exact_distinct=40)
        lose = outlook(frontier=100, edges=150, exact_pairs=140, exact_distinct=140)
        assert policy.decide(PageRank(), win)
        assert not policy.decide(PageRank(), lose)


class TestAdaptivePolicy:
    def _outlook(self, *, failed=None, iteration=0):
        # Heavily duplicated dense shards (50k/40k edges into 2k vertices)
        # next to a sparse tail — offload wins the former, fetch the latter.
        edges = np.array([50_000.0, 40_000.0, 100.0, 50.0])
        frontier = np.array([400.0, 300.0, 80.0, 40.0])
        return IterationOutlook(
            iteration=iteration,
            frontier_size=int(frontier.sum()),
            edges_traversed=int(edges.sum()),
            num_vertices=2000,
            num_parts=4,
            edges_per_part=edges,
            frontier_per_part=frontier,
            failed_parts=failed,
        )

    def test_per_part_mask_splits_dense_and_sparse(self):
        policy = AdaptiveOffloadPolicy()
        mask = policy.decide(PageRank(), self._outlook())
        assert mask is not None
        # Dense shards offload, the sparse tail fetches.
        assert mask[0] and mask[1]
        assert not mask[3]

    def test_failed_parts_masked_proactively(self):
        policy = AdaptiveOffloadPolicy()
        failed = np.array([True, False, False, False])
        mask = policy.decide(PageRank(), self._outlook(failed=failed))
        assert not mask[0]

    def test_last_decision_records_features(self):
        policy = AdaptiveOffloadPolicy()
        policy.decide(PageRank(), self._outlook())
        record = policy.last_decision
        assert record is not None
        assert record["policy"] == "adaptive"
        assert record["iteration"] == 0
        assert record["byte_correction"] == 1.0
        assert "predicted_offload_bytes" in record

    def test_observe_reweights_bytes(self):
        policy = AdaptiveOffloadPolicy(ema_alpha=1.0)
        o = self._outlook()
        mask = policy.decide(PageRank(), o)
        # Ledger reports half the predicted offload bytes: the correction
        # moves toward the realized/predicted ratio.
        _, offload_cost, fetch_cost = policy._pending
        predicted = offload_cost[mask].sum()
        updated = observe(
            policy,
            o,
            host_link_bytes=fetch_cost[~mask].sum() + predicted / 2,
            mask=mask,
        )
        assert updated
        assert policy._byte_correction == pytest.approx(0.5)
        assert policy.last_decision["byte_correction"] == pytest.approx(0.5)

    def test_pure_fetch_produces_no_update(self):
        policy = AdaptiveOffloadPolicy()
        o = self._outlook()
        policy.decide(PageRank(), o)
        assert not observe(policy, o, host_link_bytes=123.0)
        assert policy._byte_correction == 1.0
        assert policy.last_decision["observed_host_link_bytes"] == 123.0

    def test_stale_feedback_ignored(self):
        policy = AdaptiveOffloadPolicy()
        policy.decide(PageRank(), self._outlook(iteration=3))
        updated = observe(
            policy,
            self._outlook(iteration=7),
            host_link_bytes=1.0,
            mask=np.ones(4, dtype=bool),
        )
        assert not updated

    def test_ratio_clipped(self):
        policy = AdaptiveOffloadPolicy(ema_alpha=1.0)
        o = self._outlook()
        mask = policy.decide(PageRank(), o)
        observe(policy, o, host_link_bytes=1e12, mask=mask)
        assert policy._byte_correction == 10.0

    def test_calibration_can_be_disabled(self):
        policy = AdaptiveOffloadPolicy(calibrate=False)
        o = self._outlook()
        mask = policy.decide(PageRank(), o)
        assert not observe(
            policy, o, pairs=10, distinct=5, host_link_bytes=1.0, mask=mask
        )
        assert policy._byte_correction == 1.0
        assert policy._pairs_correction == 1.0

    def test_observe_calibrates_counts_too(self):
        # One observe call carries both feedback loops: the inherited
        # count calibration moves along with the byte correction.
        policy = AdaptiveOffloadPolicy(ema_alpha=1.0)
        o = self._outlook()
        mask = policy.decide(PageRank(), o)
        observe(policy, o, pairs=10, distinct=5, host_link_bytes=1e6, mask=mask)
        assert policy._pairs_correction != 1.0
        assert policy._distinct_correction != 1.0


class TestRegistry:
    def test_all_names(self):
        assert set(list_policies()) == {
            "always",
            "never",
            "threshold",
            "dynamic",
            "oracle",
            "per-part",
            "adaptive",
        }

    def test_get_with_kwargs(self):
        p = get_policy("threshold", min_avg_degree=7.0)
        assert p.min_avg_degree == 7.0

    def test_unknown(self):
        with pytest.raises(ConfigError):
            get_policy("psychic")

    def test_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'adaptive'"):
            check_policy_name("adaptve")

    def test_bad_kwargs_raise_config_error(self):
        with pytest.raises(ConfigError, match="threshold"):
            get_policy("threshold", no_such_knob=1)
