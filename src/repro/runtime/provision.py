"""Resource provisioning: coupled vs disaggregated (Fig. 4 / Table II).

The paper's Fig. 4 shows kernels with similar compute needs but divergent
memory needs (and vice versa).  A coupled cluster must buy whole servers to
cover ``max(compute, memory)`` demand, stranding the other resource; a
disaggregated deployment sizes each pool independently.  These functions
compute both plans and the resulting utilization reports that feed
Table II's Skewed/Balanced column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.hardware.device import DeviceModel
from repro.kernels.base import VertexProgram
from repro.telemetry.utilization import UtilizationReport, utilization_report


@dataclass(frozen=True)
class WorkloadDemand:
    """Resource demand of one (graph, kernel) workload."""

    compute_ops_per_iteration: float
    memory_bytes: float
    kernel: str
    graph_vertices: int
    graph_edges: int

    def compute_ops_per_second(self, target_iteration_seconds: float) -> float:
        """Sustained throughput needed to finish an iteration in the target."""
        if target_iteration_seconds <= 0:
            raise ConfigError("target_iteration_seconds must be > 0")
        return self.compute_ops_per_iteration / target_iteration_seconds


def workload_demands(
    graph: CSRGraph,
    kernel: VertexProgram,
    *,
    active_fraction: float = 1.0,
) -> WorkloadDemand:
    """Compute/memory demand of one iteration with ``active_fraction`` of
    vertices in the frontier (1.0 = PageRank steady state)."""
    if not 0.0 <= active_fraction <= 1.0:
        raise ConfigError(
            f"active_fraction must be in [0, 1], got {active_fraction}"
        )
    edges = graph.num_edges * active_fraction
    updates = graph.num_vertices * active_fraction
    ops = kernel.compute.traverse_ops(int(edges)) + kernel.compute.apply_ops(
        int(updates)
    )
    mem = graph.memory_footprint_bytes() + graph.num_vertices * kernel.prop_push_bytes
    return WorkloadDemand(
        compute_ops_per_iteration=float(ops),
        memory_bytes=float(mem),
        kernel=kernel.name,
        graph_vertices=graph.num_vertices,
        graph_edges=graph.num_edges,
    )


@dataclass(frozen=True)
class ProvisionPlan:
    """A sized deployment plus its utilization report."""

    architecture: str
    num_compute_nodes: int
    num_memory_nodes: int
    report: UtilizationReport


def provision_coupled(
    demand: WorkloadDemand,
    node: DeviceModel,
    *,
    target_iteration_seconds: float = 1.0,
) -> ProvisionPlan:
    """Size a homogeneous (distributed) cluster: one node type covers both."""
    ops_needed = demand.compute_ops_per_second(target_iteration_seconds)
    by_compute = int(np.ceil(ops_needed / node.aggregate_ops_per_second))
    by_memory = int(np.ceil(demand.memory_bytes / node.memory_capacity_bytes))
    nodes = max(1, by_compute, by_memory)
    report = utilization_report(
        compute_demand_ops=ops_needed,
        memory_demand_bytes=demand.memory_bytes,
        compute_provisioned_ops=nodes * node.aggregate_ops_per_second,
        memory_provisioned_bytes=nodes * node.memory_capacity_bytes,
        num_nodes=nodes,
    )
    return ProvisionPlan(
        architecture="coupled",
        num_compute_nodes=nodes,
        num_memory_nodes=0,
        report=report,
    )


def provision_disaggregated(
    demand: WorkloadDemand,
    compute_node: DeviceModel,
    memory_node: DeviceModel,
    *,
    target_iteration_seconds: float = 1.0,
) -> ProvisionPlan:
    """Size compute and memory pools independently."""
    if memory_node.memory_capacity_bytes <= 0:
        raise ConfigError("memory_node must have memory capacity")
    ops_needed = demand.compute_ops_per_second(target_iteration_seconds)
    n_compute = max(
        1, int(np.ceil(ops_needed / compute_node.aggregate_ops_per_second))
    )
    n_memory = max(
        1,
        int(np.ceil(demand.memory_bytes / memory_node.memory_capacity_bytes)),
    )
    report = utilization_report(
        compute_demand_ops=ops_needed,
        memory_demand_bytes=demand.memory_bytes,
        compute_provisioned_ops=n_compute * compute_node.aggregate_ops_per_second,
        memory_provisioned_bytes=n_memory * memory_node.memory_capacity_bytes,
        num_nodes=n_compute + n_memory,
    )
    return ProvisionPlan(
        architecture="disaggregated",
        num_compute_nodes=n_compute,
        num_memory_nodes=n_memory,
        report=report,
    )
