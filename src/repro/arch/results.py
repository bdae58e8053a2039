"""Per-iteration statistics and whole-run results."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.kernels.base import KernelState, VertexProgram
from repro.obs.metrics import CounterSet
from repro.telemetry.movement import MovementLedger
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes


def result_sha256(values: np.ndarray) -> str:
    """sha256 of a kernel's result array — the bit-identity comparator."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@dataclass(frozen=True)
class IterationStats:
    """Everything measured for one iteration of one architecture run."""

    iteration: int
    frontier_size: int
    edges_traversed: int
    distinct_destinations: int
    partial_update_pairs: int  # Σ_p |D_p|
    cross_update_pairs: int  # pairs whose source part != destination owner
    changed_vertices: int
    offloaded: bool  # traversal ran near-data this iteration
    host_link_bytes: int  # the figures' movement metric
    network_bytes: int
    bytes_by_phase: Dict[str, int]
    traverse_seconds: float
    movement_seconds: float
    apply_seconds: float
    sync_seconds: float
    traverse_ops: float
    apply_ops: float
    sync_participants: int
    #: memory nodes whose traversal ran near-data this iteration; -1 means
    #: the decision was global (all parts follow ``offloaded``)
    offloaded_parts: int = -1
    #: bytes moved by fault recovery (re-replication/rebuild, retransmit)
    #: and checkpointing at this iteration's boundary; 0 when fault-free
    recovery_bytes: int = 0
    #: modeled time of those recovery transfers (serialized with the phases)
    recovery_seconds: float = 0.0

    @property
    def iteration_seconds(self) -> float:
        """Modeled wall time of this iteration."""
        return (
            self.traverse_seconds
            + self.movement_seconds
            + self.apply_seconds
            + self.sync_seconds
            + self.recovery_seconds
        )


@dataclass
class RunResult:
    """Result of one kernel run on one architecture simulator."""

    architecture: str
    kernel: str
    graph_name: str
    num_parts: int
    num_compute_nodes: int
    iterations: List[IterationStats] = field(default_factory=list)
    final_state: Optional[KernelState] = None
    kernel_program: Optional[VertexProgram] = None
    ledger: MovementLedger = field(default_factory=MovementLedger)
    counters: CounterSet = field(default_factory=CounterSet)
    converged: bool = False

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_host_link_bytes(self) -> int:
        return sum(s.host_link_bytes for s in self.iterations)

    @property
    def total_network_bytes(self) -> int:
        return sum(s.network_bytes for s in self.iterations)

    @property
    def total_seconds(self) -> float:
        return sum(s.iteration_seconds for s in self.iterations)

    @property
    def total_sync_seconds(self) -> float:
        return sum(s.sync_seconds for s in self.iterations)

    @property
    def total_movement_seconds(self) -> float:
        return sum(s.movement_seconds for s in self.iterations)

    @property
    def total_edges_traversed(self) -> int:
        return sum(s.edges_traversed for s in self.iterations)

    @property
    def total_recovery_bytes(self) -> int:
        """Bytes moved by fault recovery and checkpointing (0 fault-free)."""
        return sum(s.recovery_bytes for s in self.iterations)

    def result_property(self) -> np.ndarray:
        """The kernel's output array (requires a completed run)."""
        if self.final_state is None or self.kernel_program is None:
            raise ValueError("run has no final state")
        return self.kernel_program.result(self.final_state)

    def per_iteration_bytes(self) -> np.ndarray:
        """``int64[iters]`` host-link bytes per iteration (the Fig. 7 series)."""
        return np.asarray(
            [s.host_link_bytes for s in self.iterations], dtype=np.int64
        )

    def per_iteration_frontier(self) -> np.ndarray:
        """``int64[iters]`` frontier sizes."""
        return np.asarray(
            [s.frontier_size for s in self.iterations], dtype=np.int64
        )

    def offload_decisions(self) -> List[bool]:
        """Whether each iteration's traversal was offloaded."""
        return [s.offloaded for s in self.iterations]

    def summary_table(self) -> TextTable:
        """Human-readable per-iteration table."""
        table = TextTable(
            ["iter", "frontier", "edges", "updates", "offload", "bytes", "human"],
            title=f"{self.architecture} / {self.kernel} on {self.graph_name}",
        )
        for s in self.iterations:
            table.add_row(
                s.iteration,
                s.frontier_size,
                s.edges_traversed,
                s.partial_update_pairs,
                s.offloaded,
                s.host_link_bytes,
                format_bytes(s.host_link_bytes),
            )
        return table
