"""Tests for per-memory-node (hybrid) offload decisions."""

import numpy as np
import pytest

from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.graph.csr import CSRGraph
from repro.kernels import reference
from repro.kernels.pagerank import PageRank
from repro.partition.range_chunk import RangePartitioner
from repro.runtime.config import SystemConfig
from repro.runtime.offload import (
    IterationOutlook,
    OffloadPolicy,
    PerPartCostPolicy,
    get_policy,
    list_policies,
)


@pytest.fixture(scope="module")
def mixed_density_graph():
    """Dense random half + sparse chain half: range parts differ sharply."""
    rng = np.random.default_rng(1)
    half = 1024
    dsrc = rng.integers(0, half, 30_000)
    ddst = rng.integers(0, half, 30_000)
    ssrc = np.arange(half, 2 * half - 1)
    return CSRGraph.from_edges(
        np.concatenate([dsrc, ssrc]),
        np.concatenate([ddst, ssrc + 1]),
        2 * half,
        dedup=True,
    )


@pytest.fixture(scope="module")
def mixed_runs(mixed_density_graph):
    cfg = SystemConfig(num_memory_nodes=8)
    assignment = RangePartitioner().partition(mixed_density_graph, 8)
    out = {}
    for name in ("never", "always", "per-part"):
        sim = DisaggregatedNDPSimulator(cfg, policy=get_policy(name))
        out[name] = sim.run(
            mixed_density_graph,
            PageRank(max_iterations=4),
            assignment=assignment,
            max_iterations=4,
        )
    return out


class FixedMask(OffloadPolicy):
    """Offload exactly the shards in ``mask``, every iteration."""

    name = "fixed-mask"

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)

    def decide(self, kernel, outlook, **kw):
        return False

    def decide_per_part(self, kernel, outlook, **kw):
        return self.mask


class TestPerPartDecisions:
    def test_registered(self):
        assert "per-part" in list_policies()

    def test_mask_shape(self):
        policy = PerPartCostPolicy()
        outlook = IterationOutlook(
            iteration=0,
            frontier_size=100,
            edges_traversed=1000,
            num_vertices=1000,
            num_parts=4,
            edges_per_part=np.array([5000, 200, 90, 10]),
            frontier_per_part=np.array([25, 25, 25, 25]),
        )
        mask = policy.decide_per_part(PageRank(), outlook)
        assert mask.shape == (4,)
        assert mask.dtype == bool
        # Dense part offloads, near-empty part fetches.
        assert mask[0]
        assert not mask[3]

    def test_falls_back_without_part_info(self):
        policy = PerPartCostPolicy()
        outlook = IterationOutlook(
            iteration=0,
            frontier_size=100,
            edges_traversed=1000,
            num_vertices=1000,
            num_parts=4,
        )
        assert policy.decide_per_part(PageRank(), outlook) is None

    def test_oracle_variant_uses_exact_pairs(self):
        policy = PerPartCostPolicy(oracle=True)
        assert policy.requires_oracle
        outlook = IterationOutlook(
            iteration=0,
            frontier_size=40,
            edges_traversed=2000,
            num_vertices=200,
            num_parts=2,
            edges_per_part=np.array([1000, 1000]),
            frontier_per_part=np.array([20, 20]),
            exact_partials_per_part=np.array([10, 990]),
        )
        mask = policy.decide_per_part(PageRank(), outlook)
        assert mask[0] and not mask[1]


class TestHybridSimulation:
    def test_numerics_unchanged(self, mixed_density_graph, mixed_runs):
        expected = reference.pagerank(mixed_density_graph, max_iterations=4)
        for name, run in mixed_runs.items():
            assert np.allclose(run.result_property(), expected), name

    def test_per_part_dominates_global(self, mixed_runs):
        envelope = min(
            mixed_runs["always"].total_host_link_bytes,
            mixed_runs["never"].total_host_link_bytes,
        )
        assert mixed_runs["per-part"].total_host_link_bytes <= envelope

    def test_mixed_iterations_counted(self, mixed_runs):
        run = mixed_runs["per-part"]
        assert run.counters["iterations-mixed"] == run.num_iterations
        for stats in run.iterations:
            assert 0 < stats.offloaded_parts < 8
            assert stats.offloaded

    def test_mixed_bytes_are_split_of_pure_modes(self, mixed_density_graph):
        """Hybrid movement = offload formula on masked parts + fetch formula
        on the rest, verified against a manual mask computation."""
        cfg = SystemConfig(num_memory_nodes=8)
        assignment = RangePartitioner().partition(mixed_density_graph, 8)
        kernel = PageRank(max_iterations=1)
        run = DisaggregatedNDPSimulator(
            cfg, policy=get_policy("per-part")
        ).run(
            mixed_density_graph, kernel, assignment=assignment, max_iterations=1
        )
        stats = run.iterations[0]
        phases = stats.bytes_by_phase
        total = (
            phases["frontier-push"]
            + phases["apply"]
            + phases["edge-fetch-request"]
            + phases["edge-fetch"]
        )
        assert stats.host_link_bytes == total

    def test_global_masks_reduce_to_pure_modes(self, mixed_density_graph):
        """An all-True/all-False mask must hit the pure accounting paths."""
        cfg = SystemConfig(num_memory_nodes=4)
        always = DisaggregatedNDPSimulator(cfg, policy=get_policy("always")).run(
            mixed_density_graph, PageRank(max_iterations=2), max_iterations=2
        )
        via_mask = DisaggregatedNDPSimulator(cfg, policy=FixedMask([1] * 4)).run(
            mixed_density_graph, PageRank(max_iterations=2), max_iterations=2
        )
        assert via_mask.total_host_link_bytes == always.total_host_link_bytes
        assert via_mask.iterations == always.iterations
        assert via_mask.ledger == always.ledger

        never = DisaggregatedNDPSimulator(cfg, policy=get_policy("never")).run(
            mixed_density_graph, PageRank(max_iterations=2), max_iterations=2
        )
        via_mask0 = DisaggregatedNDPSimulator(cfg, policy=FixedMask([0] * 4)).run(
            mixed_density_graph, PageRank(max_iterations=2), max_iterations=2
        )
        assert via_mask0.total_host_link_bytes == never.total_host_link_bytes
        assert via_mask0.iterations == never.iterations
        assert via_mask0.ledger == never.ledger

    def test_capability_denial_forces_fetch(self, mixed_density_graph):
        from repro.hardware.catalog import UPMEM_PIM

        cfg = SystemConfig(num_memory_nodes=4, ndp_device=UPMEM_PIM)
        run = DisaggregatedNDPSimulator(
            cfg, policy=get_policy("per-part")
        ).run(mixed_density_graph, PageRank(max_iterations=2), max_iterations=2)
        assert not any(run.offload_decisions())

    def test_inc_applies_to_offloaded_shards(self, mixed_density_graph):
        cfg = SystemConfig(num_memory_nodes=8, enable_inc=True)
        assignment = RangePartitioner().partition(mixed_density_graph, 8)
        base_cfg = SystemConfig(num_memory_nodes=8)
        base = DisaggregatedNDPSimulator(
            base_cfg, policy=get_policy("per-part")
        ).run(
            mixed_density_graph, PageRank(max_iterations=2),
            assignment=assignment, max_iterations=2,
        )
        inc = DisaggregatedNDPSimulator(
            cfg, policy=get_policy("per-part")
        ).run(
            mixed_density_graph, PageRank(max_iterations=2),
            assignment=assignment, max_iterations=2,
        )
        assert inc.total_host_link_bytes <= base.total_host_link_bytes


# Three of eight shards offload, so the two sides differ in every count.
MIXED_MASKS = {
    "dense-offloaded": [1, 1, 1, 0, 0, 0, 0, 0],
    "scattered": [1, 0, 1, 0, 0, 1, 0, 0],
}


class TestMixedClosedForms:
    """A mixed iteration's bytes and apply time in closed form.

    Everything expected is computed here from the graph, the frontier (all
    vertices, PageRank), the range assignment and the executed mask ``M``
    — never from the engine's profile.  ``D_p`` is the set of destinations
    of part ``p``'s frontier edges.
    """

    ITERATIONS = 2

    @pytest.fixture(scope="class")
    def setup(self, mixed_density_graph):
        graph = mixed_density_graph
        assert not graph.has_weights  # 8 B edge records
        assignment = RangePartitioner().partition(graph, 8)
        n = graph.num_vertices
        outdeg = np.diff(graph.indptr).astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), outdeg)
        dst = graph.indices.astype(np.int64)
        # Distinct (v, p) with v in D_p, as sorted keys v * 8 + p.
        keys = np.unique(dst * 8 + assignment.parts[src])
        return graph, assignment, outdeg, keys // 8, keys % 8

    def _run(self, graph, assignment, mask, *, hosts, inc):
        cfg = SystemConfig(
            num_compute_nodes=hosts, num_memory_nodes=8, enable_inc=inc
        )
        return DisaggregatedNDPSimulator(cfg, policy=FixedMask(mask)).run(
            graph,
            PageRank(max_iterations=self.ITERATIONS),
            assignment=assignment,
            max_iterations=self.ITERATIONS,
        )

    @pytest.mark.parametrize("inc", [False, True])
    @pytest.mark.parametrize("hosts", [1, 2])
    @pytest.mark.parametrize("mask_name", sorted(MIXED_MASKS))
    def test_phase_bytes_and_apply_time(self, setup, mask_name, hosts, inc):
        graph, assignment, outdeg, pair_v, pair_p = setup
        mask = np.asarray(MIXED_MASKS[mask_name], dtype=bool)
        kernel = PageRank()
        parts = assignment.parts
        w = kernel.message.wire_bytes
        offloaded = mask[parts]  # every vertex is in PageRank's frontier
        in_m = mask[pair_p]
        sum_dp = int(np.count_nonzero(in_m))  # sum over p in M of |D_p|
        union_dp = int(np.unique(pair_v[in_m]).size)  # |union over p in M|
        fetched_union = int(np.unique(pair_v[~in_m]).size)
        expected = {
            "edge-fetch": 8 * int(outdeg[~offloaded].sum()),
            "edge-fetch-request": 8 * int(np.count_nonzero(~offloaded)),
            "frontier-push": kernel.prop_push_bytes * int(np.count_nonzero(offloaded)),
            "traverse-internal": 8 * int(outdeg[offloaded].sum()),
            "apply": w * (union_dp if inc else sum_dp),
        }
        if inc:
            expected["apply-fanin"] = w * sum_dp
        if hosts == 2:
            fetched_v = pair_v[~in_m]
            fetched_host = pair_p[~in_m] % 2
            cross = fetched_host != parts[fetched_v] % 2
            shuffled = np.unique(fetched_v[cross] * 2 + fetched_host[cross]).size
            expected["host-shuffle"] = w * int(shuffled)
            assert shuffled > 0

        run = self._run(graph, assignment, mask, hosts=hosts, inc=inc)
        assert run.counters["iterations-mixed"] == self.ITERATIONS
        cfg = SystemConfig(num_compute_nodes=hosts)
        host, switch = cfg.host_device, cfg.switch_device
        touched = int(np.unique(pair_v).size)
        apply_bytes = expected["apply"] + w * fetched_union
        apply_seconds = host.compute_seconds(
            kernel.compute.apply_ops(touched) / hosts
        ) + host.memory_seconds(apply_bytes / hosts)
        if inc:
            apply_seconds += switch.compute_seconds(sum_dp - union_dp)
        host_phases = set(expected) - {"traverse-internal", "apply-fanin"}
        for stats in run.iterations:
            assert stats.bytes_by_phase == expected
            assert stats.offloaded_parts == int(mask.sum())
            assert stats.host_link_bytes == sum(expected[p] for p in host_phases)
            assert stats.network_bytes == stats.host_link_bytes + expected.get(
                "apply-fanin", 0
            )
            assert stats.apply_seconds == pytest.approx(apply_seconds, rel=1e-12)
        assert run.ledger.host_link_bytes() == run.total_host_link_bytes
        assert run.ledger.network_bytes() == run.total_network_bytes

    @pytest.mark.parametrize("mask_name", sorted(MIXED_MASKS))
    def test_inc_counts_merged_updates(self, setup, mask_name):
        graph, assignment, _, pair_v, pair_p = setup
        mask = np.asarray(MIXED_MASKS[mask_name], dtype=bool)
        in_m = mask[pair_p]
        merged = int(np.count_nonzero(in_m)) - int(np.unique(pair_v[in_m]).size)
        assert merged > 0
        run = self._run(graph, assignment, mask, hosts=1, inc=True)
        assert run.counters["inc-merged-updates"] == merged * self.ITERATIONS
        # The default table holds every destination: nothing passes through.
        assert run.counters.get("inc-passthrough-updates") == 0
        assert "inc-passthrough-updates" in run.counters.as_dict()
