"""Accounting invariants: each architecture's byte formulas, checked against
the closed-form cost model and hand-computable graphs."""

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.graph.csr import CSRGraph
from repro.kernels.base import VERTEX_ID_BYTES
from repro.kernels.pagerank import PageRank
from repro.net.link import LinkClass
from repro.partition.base import PartitionAssignment
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import exact_movement
from repro.runtime.offload import NeverOffload


def assignment_mod(graph, k):
    return PartitionAssignment(
        np.arange(graph.num_vertices, dtype=np.int64) % k, k
    )


class TestDisaggregatedAccounting:
    def test_fetch_bytes_formula(self, tiny_rmat, config4):
        """Measured fetch movement == cost model's closed form, per iteration."""
        kernel = PageRank(max_iterations=3)
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, kernel, assignment=assignment_mod(tiny_rmat, 4),
            max_iterations=3,
        )
        for stats in run.iterations:
            est = exact_movement(
                kernel,
                frontier_size=stats.frontier_size,
                edges_traversed=stats.edges_traversed,
                partial_pairs=stats.partial_update_pairs,
                distinct_destinations=stats.distinct_destinations,
            )
            assert stats.host_link_bytes == est.fetch_bytes

    def test_ledger_matches_iteration_stats(self, tiny_rmat, config4):
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=3), max_iterations=3
        )
        assert run.ledger.host_link_bytes() == run.total_host_link_bytes

    def test_no_offload_flag(self, tiny_rmat, config4):
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert not any(s.offloaded for s in run.iterations)

    def test_hand_computed_graph(self):
        # 3 vertices all on one memory node; PR frontier = all 3; 2 edges.
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        cfg = SystemConfig(num_memory_nodes=1)
        run = DisaggregatedSimulator(cfg).run(
            g, PageRank(max_iterations=1), max_iterations=1
        )
        stats = run.iterations[0]
        # request: 8 B x 3 frontier ids; fetch: 8 B x 2 edges
        assert stats.host_link_bytes == 8 * 3 + 8 * 2


class TestDisaggregatedNDPAccounting:
    def test_offload_bytes_formula(self, tiny_rmat, config4):
        kernel = PageRank(max_iterations=3)
        run = DisaggregatedNDPSimulator(config4).run(
            tiny_rmat, kernel, assignment=assignment_mod(tiny_rmat, 4),
            max_iterations=3,
        )
        for stats in run.iterations:
            est = exact_movement(
                kernel,
                frontier_size=stats.frontier_size,
                edges_traversed=stats.edges_traversed,
                partial_pairs=stats.partial_update_pairs,
                distinct_destinations=stats.distinct_destinations,
            )
            assert stats.host_link_bytes == est.offload_bytes

    def test_inc_bytes_formula(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4, enable_inc=True)
        kernel = PageRank(max_iterations=3)
        run = DisaggregatedNDPSimulator(cfg).run(
            tiny_rmat, kernel, max_iterations=3
        )
        for stats in run.iterations:
            # Big default buffer: perfect aggregation, one update per
            # distinct destination.
            expected = (
                kernel.prop_push_bytes * stats.frontier_size
                + kernel.message.wire_bytes * stats.distinct_destinations
            )
            assert stats.host_link_bytes == expected

    def test_inc_never_worse_on_host_link(self, tiny_rmat):
        base = SystemConfig(num_memory_nodes=8)
        inc = base.with_options(enable_inc=True)
        kernel = lambda: PageRank(max_iterations=3)  # noqa: E731
        without = DisaggregatedNDPSimulator(base).run(
            tiny_rmat, kernel(), max_iterations=3
        )
        with_inc = DisaggregatedNDPSimulator(inc).run(
            tiny_rmat, kernel(), max_iterations=3
        )
        assert with_inc.total_host_link_bytes <= without.total_host_link_bytes

    def test_edges_stay_internal_when_offloaded(self, tiny_rmat, config4):
        run = DisaggregatedNDPSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        internal = run.ledger.bytes_for(link=LinkClass.NDP_INTERNAL)
        assert internal == 8 * sum(s.edges_traversed for s in run.iterations)
        assert run.ledger.bytes_for(phase="edge-fetch") == 0

    def test_never_policy_degenerates_to_fetch(self, tiny_rmat, config4):
        a = assignment_mod(tiny_rmat, 4)
        plain = DisaggregatedSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        never = DisaggregatedNDPSimulator(config4, policy=NeverOffload()).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        assert never.total_host_link_bytes == plain.total_host_link_bytes
        assert not any(s.offloaded for s in never.iterations)

    def test_bfs_compact_frontier_push(self, tiny_rmat, config4):
        """Membership-only kernels ship ids/bitmap instead of id+value."""
        from repro.kernels.bfs import BFS
        from repro.runtime.cost_model import frontier_push_bytes

        src = int(tiny_rmat.out_degrees.argmax())
        run = DisaggregatedNDPSimulator(config4).run(
            tiny_rmat, BFS(), source=src
        )
        for stats in run.iterations:
            expected_push = frontier_push_bytes(
                BFS(),
                stats.frontier_size,
                num_vertices=tiny_rmat.num_vertices,
                num_parts=4,
            )
            assert stats.bytes_by_phase["frontier-push"] == expected_push
            # Always at most the id+value cost.
            assert expected_push <= BFS().prop_push_bytes * stats.frontier_size

    def test_offload_flag_set(self, tiny_rmat, config4):
        run = DisaggregatedNDPSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert all(s.offloaded for s in run.iterations)
        assert run.counters["iterations-offload"] == run.num_iterations


class TestDistributedAccounting:
    def test_movement_formula(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4)
        kernel = PageRank(max_iterations=3)
        run = DistributedSimulator(cfg).run(
            tiny_rmat, kernel, assignment=assignment_mod(tiny_rmat, 4),
            max_iterations=3,
        )
        for stats in run.iterations:
            # mirror->master updates + master->mirror broadcast
            assert stats.host_link_bytes == (
                kernel.message.wire_bytes * stats.cross_update_pairs
                + stats.bytes_by_phase["broadcast"]
            )

    def test_local_traversal_not_network(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4)
        run = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        local = run.ledger.bytes_for(link=LinkClass.NODE_LOCAL)
        assert local == 8 * sum(s.edges_traversed for s in run.iterations)
        assert run.ledger.bytes_for(phase="edge-fetch") == 0

    def test_sync_participants_all_nodes(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=8)
        run = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert all(s.sync_participants == 8 for s in run.iterations)

    def test_single_node_no_communication(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=1)
        run = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert run.total_host_link_bytes == 0

    def test_distributed_ndp_same_movement(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4)
        a = assignment_mod(tiny_rmat, 4)
        plain = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        ndp = DistributedNDPSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        # Section III.B: NDP in the nodes does not change inter-node bytes.
        assert ndp.total_host_link_bytes == plain.total_host_link_bytes

    def test_distributed_ndp_faster_traversal(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4)
        a = assignment_mod(tiny_rmat, 4)
        plain = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        ndp = DistributedNDPSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        t_plain = sum(s.traverse_seconds for s in plain.iterations)
        t_ndp = sum(s.traverse_seconds for s in ndp.iterations)
        assert t_ndp < t_plain

    def test_distributed_ndp_overlap_hides_communication(self, tiny_rmat):
        cfg = SystemConfig(num_memory_nodes=4)
        a = assignment_mod(tiny_rmat, 4)
        plain = DistributedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        ndp = DistributedNDPSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=3), assignment=a, max_iterations=3
        )
        m_plain = sum(s.movement_seconds for s in plain.iterations)
        m_ndp = sum(s.movement_seconds for s in ndp.iterations)
        assert m_ndp <= m_plain


class TestMultiHostShuffle:
    def test_single_host_no_shuffle(self, tiny_rmat):
        cfg = SystemConfig(num_compute_nodes=1, num_memory_nodes=4)
        run = DisaggregatedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert run.ledger.bytes_for(phase="host-shuffle") == 0

    def test_multi_host_shuffles(self, tiny_rmat):
        cfg = SystemConfig(num_compute_nodes=2, num_memory_nodes=4)
        run = DisaggregatedSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert run.ledger.bytes_for(phase="host-shuffle") > 0
