"""Unit tests for the provisioning model."""

import pytest

from repro.errors import ConfigError
from repro.hardware.catalog import CXL_CMS, HOST_XEON, SHARP_SWITCH
from repro.kernels.bfs import BFS
from repro.kernels.pagerank import PageRank
from repro.runtime.provision import (
    demand_matrix,
    provision_coupled,
    provision_disaggregated,
    workload_demands,
)
from repro.telemetry.utilization import classify_utilization


class TestWorkloadDemands:
    def test_scaling_with_activity(self, tiny_rmat):
        full = workload_demands(tiny_rmat, PageRank(), active_fraction=1.0)
        half = workload_demands(tiny_rmat, PageRank(), active_fraction=0.5)
        assert half.compute_ops_per_iteration < full.compute_ops_per_iteration
        assert half.memory_bytes == full.memory_bytes  # footprint unchanged

    def test_validation(self, tiny_rmat):
        with pytest.raises(ConfigError):
            workload_demands(tiny_rmat, PageRank(), active_fraction=1.5)
        demand = workload_demands(tiny_rmat, PageRank())
        with pytest.raises(ConfigError):
            demand.compute_ops_per_second(0)

    def test_kernel_intensity_ordering(self, tiny_rmat):
        # PageRank does strictly more work per edge than BFS (Fig. 4's
        # compute axis spread).
        pr = workload_demands(tiny_rmat, PageRank())
        bfs = workload_demands(tiny_rmat, BFS())
        assert pr.compute_ops_per_iteration > bfs.compute_ops_per_iteration

    def test_demand_matrix_size(self, tiny_rmat, tiny_er):
        demands = demand_matrix(
            (("a", tiny_rmat), ("b", tiny_er)), (PageRank(), BFS())
        )
        assert len(demands) == 4


class TestProvisioning:
    def _scaled_demand(self, graph, scale):
        d = workload_demands(graph, PageRank())
        return type(d)(
            compute_ops_per_iteration=d.compute_ops_per_iteration * scale,
            memory_bytes=d.memory_bytes * scale,
            kernel=d.kernel,
            graph_vertices=d.graph_vertices,
            graph_edges=d.graph_edges,
        )

    def test_coupled_overprovisions_for_memory(self, tiny_rmat):
        demand = self._scaled_demand(tiny_rmat, 1e8)
        plan = provision_coupled(demand, HOST_XEON, target_iteration_seconds=10)
        # memory drives the node count; compute sits mostly idle
        assert plan.num_compute_nodes > 1
        assert plan.report.memory_utilization > plan.report.compute_utilization
        assert classify_utilization(plan.report) == "Skewed"

    def test_disaggregated_balances(self, tiny_rmat):
        demand = self._scaled_demand(tiny_rmat, 1e8)
        plan = provision_disaggregated(
            demand, HOST_XEON, CXL_CMS, target_iteration_seconds=10
        )
        assert classify_utilization(plan.report) == "Balanced"
        assert plan.num_memory_nodes > plan.num_compute_nodes

    def test_disaggregated_fewer_or_equal_total_compute(self, tiny_rmat):
        demand = self._scaled_demand(tiny_rmat, 1e8)
        coupled = provision_coupled(demand, HOST_XEON, target_iteration_seconds=10)
        disagg = provision_disaggregated(
            demand, HOST_XEON, CXL_CMS, target_iteration_seconds=10
        )
        assert disagg.num_compute_nodes <= coupled.num_compute_nodes

    def test_minimum_one_node(self, tiny_rmat):
        demand = workload_demands(tiny_rmat, PageRank())
        plan = provision_coupled(demand, HOST_XEON)
        assert plan.num_compute_nodes == 1

    def test_memoryless_node_rejected(self, tiny_rmat):
        demand = workload_demands(tiny_rmat, PageRank())
        with pytest.raises(ConfigError):
            provision_disaggregated(demand, HOST_XEON, SHARP_SWITCH)

    def test_total_nodes(self, tiny_rmat):
        demand = self._scaled_demand(tiny_rmat, 1e7)
        plan = provision_disaggregated(
            demand, HOST_XEON, CXL_CMS, target_iteration_seconds=10
        )
        assert plan.total_nodes == plan.num_compute_nodes + plan.num_memory_nodes
