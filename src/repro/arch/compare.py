"""Cross-architecture comparison harness (regenerates Table II).

Runs the same (graph, kernel, partitioning) workload through all four
architecture simulators and derives the paper's qualitative labels from the
measurements: communication overhead from total network movement,
synchronization overhead from barrier participants x frequency, and
resource utilization from the provisioning model.

The kernel numerics execute exactly once: the workload is recorded into an
:class:`~repro.arch.trace.ExecutionTrace` and each simulator *replays* the
shared trace through its accounting hook (the paper's "run the computation
once, separately account what each deployment would have moved").  Pass
``shared_trace=False`` to fall back to four independent executions — the
results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.results import RunResult
from repro.arch.trace import ExecutionTrace, record_trace
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.recovery import FaultsLike
from repro.graph.csr import CSRGraph
from repro.kernels.base import VertexProgram
from repro.partition.base import Partitioner
from repro.runtime.config import SystemConfig
from repro.runtime.provision import (
    provision_coupled,
    provision_disaggregated,
    workload_demands,
)
from repro.telemetry.utilization import classify_utilization
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes

#: Fraction of the worst architecture's movement below which the label is Low.
COMM_LOW_FRACTION = 0.5
#: Fraction of the widest barrier below which sync reads as Low.
SYNC_LOW_FRACTION = 0.5


@dataclass(frozen=True)
class ArchitectureRow:
    """One Table II row: measurements plus derived labels."""

    architecture: str
    near_memory_acceleration: bool
    total_host_link_bytes: int
    total_sync_seconds: float
    sync_participants: int
    utilization_label: str
    communication_label: str
    synchronization_label: str
    run: RunResult


@dataclass
class ArchitectureComparison:
    """All four rows plus rendering helpers."""

    rows: List[ArchitectureRow]
    kernel: str
    graph_name: str
    #: the shared execution trace the rows were replayed from (``None``
    #: when the comparison ran with ``shared_trace=False``)
    trace: Optional[ExecutionTrace] = field(default=None, repr=False)

    def row(self, architecture: str) -> ArchitectureRow:
        for r in self.rows:
            if r.architecture == architecture:
                return r
        raise KeyError(architecture)

    def as_table(self) -> TextTable:
        table = TextTable(
            [
                "System Architecture",
                "Near-Memory Accel.",
                "Comm. Overhead",
                "Sync. Overhead",
                "Resource Util.",
                "network bytes",
                "sync participants",
            ],
            title=f"Table II reproduction — {self.kernel} on {self.graph_name}",
        )
        for r in self.rows:
            table.add_row(
                r.architecture,
                "yes" if r.near_memory_acceleration else "no",
                r.communication_label,
                r.synchronization_label,
                r.utilization_label,
                format_bytes(r.total_host_link_bytes),
                r.sync_participants,
            )
        return table

    def labels(self) -> Dict[str, Tuple[str, str, str]]:
        """``{arch: (comm, sync, utilization)}`` — the paper's cell values."""
        return {
            r.architecture: (
                r.communication_label,
                r.synchronization_label,
                r.utilization_label,
            )
            for r in self.rows
        }


def compare_architectures(
    graph: CSRGraph,
    kernel: VertexProgram,
    *,
    config: Optional[SystemConfig] = None,
    partitioner: Optional[Partitioner] = None,
    source: Optional[int] = None,
    max_iterations: Optional[int] = None,
    graph_name: str = "graph",
    demand_scale: float = 1.0,
    target_iteration_seconds: float = 1.0,
    seed: int = 0,
    shared_trace: bool = True,
    faults: FaultsLike = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    policy=None,
) -> ArchitectureComparison:
    """Run all four architectures on one workload and label the rows.

    ``demand_scale`` inflates the workload's resource demand when deriving
    utilization labels, so laptop-scale stand-in graphs can represent the
    paper-scale (trillion-edge) provisioning problem.
    ``target_iteration_seconds`` sets the performance target the compute
    provisioning must meet; memory-bound kernels with relaxed targets need
    little compute per byte of graph, which is exactly the demand ratio a
    coupled server cannot match (Fig. 4's spread).
    ``shared_trace`` executes the kernel once and replays the recorded
    trace through every simulator (default); disabling it re-executes the
    numerics per architecture, producing bit-identical rows ~4× slower.
    ``faults`` injects the same seed-driven fault schedule into every
    architecture's accounting pass (numerics are unaffected), so the rows
    additionally carry each deployment's recovery bill; ``checkpoint``
    adds a checkpoint policy's steady-state movement on top.
    ``policy`` is an :class:`~repro.runtime.offload.OffloadPolicy` applied
    to the deployment with a per-iteration placement choice
    (disaggregated-NDP); the other three rows have their placement fixed
    by definition, so the comparison reads as policy-vs-static-baselines.
    """
    cfg = config or SystemConfig()
    ndp_cfg = cfg if cfg.enable_inc else cfg.with_options(enable_inc=True)
    ndp_kwargs = {} if policy is None else {"policy": policy}
    simulators = [
        DistributedSimulator(cfg),
        DistributedNDPSimulator(cfg),
        DisaggregatedSimulator(cfg),
        DisaggregatedNDPSimulator(ndp_cfg, **ndp_kwargs),
    ]
    trace = None
    if shared_trace:
        # All four simulators partition over cfg.num_memory_nodes parts, so
        # one recorded execution serves every accounting pass.
        trace = record_trace(
            graph,
            kernel,
            num_parts=cfg.num_memory_nodes,
            partitioner=partitioner,
            source=source,
            max_iterations=max_iterations,
            graph_name=graph_name,
            seed=seed,
            memory_budget_bytes=cfg.memory_budget_bytes,
        )
        runs = [
            sim.replay(trace, faults=faults, checkpoint=checkpoint)
            for sim in simulators
        ]
    else:
        runs = [
            sim.run(
                graph,
                kernel,
                partitioner=partitioner,
                source=source,
                max_iterations=max_iterations,
                graph_name=graph_name,
                seed=seed,
                faults=faults,
                checkpoint=checkpoint,
            )
            for sim in simulators
        ]

    worst_bytes = max(r.total_host_link_bytes for r in runs) or 1
    worst_sync = max(
        (s.sync_participants for r in runs for s in r.iterations), default=1
    )

    # Utilization from the provisioning model at (scaled) paper demand.
    demand = workload_demands(graph, kernel)
    demand = type(demand)(
        compute_ops_per_iteration=demand.compute_ops_per_iteration * demand_scale,
        memory_bytes=demand.memory_bytes * demand_scale,
        kernel=demand.kernel,
        graph_vertices=demand.graph_vertices,
        graph_edges=demand.graph_edges,
    )
    coupled = provision_coupled(
        demand, cfg.host_device, target_iteration_seconds=target_iteration_seconds
    )
    memory_node = cfg.ndp_device or cfg.host_device
    disagg = provision_disaggregated(
        demand,
        cfg.host_device,
        memory_node,
        target_iteration_seconds=target_iteration_seconds,
    )
    coupled_label = classify_utilization(coupled.report)
    disagg_label = classify_utilization(disagg.report)

    rows = []
    for sim, run in zip(simulators, runs):
        participants = max(
            (s.sync_participants for s in run.iterations), default=1
        )
        comm_label = (
            "Low"
            if run.total_host_link_bytes < COMM_LOW_FRACTION * worst_bytes
            else "High"
        )
        sync_label = (
            "Low" if participants < SYNC_LOW_FRACTION * worst_sync else "High"
        )
        util_label = disagg_label if sim.is_disaggregated else coupled_label
        rows.append(
            ArchitectureRow(
                architecture=sim.name,
                near_memory_acceleration=sim.has_near_memory_acceleration,
                total_host_link_bytes=run.total_host_link_bytes,
                total_sync_seconds=run.total_sync_seconds,
                sync_participants=participants,
                utilization_label=util_label,
                communication_label=comm_label,
                synchronization_label=sync_label,
                run=run,
            )
        )
    return ArchitectureComparison(
        rows=rows, kernel=kernel.name, graph_name=graph_name, trace=trace
    )
