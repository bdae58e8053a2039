"""PageRank — the paper's headline workload (Figs. 5, 6, 7c).

Topology-driven: every vertex is active every iteration, so the traversal
walks the whole edge list and the per-iteration data movement is dominated
by |E| (fetch) vs #distinct-destinations (offload) — the trade-off at the
heart of Section IV.A.  One update message is 16 B (8 B id + 8 B rank
contribution), matching the paper's accounting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import (
    ComputeProfile,
    KernelState,
    MessageSpec,
    VertexProgram,
)


class PageRank(VertexProgram):
    """Damped PageRank without dangling-mass redistribution.

    The recurrence is ``rank' = (1 - d)/n + d * Σ_in rank/outdeg`` — the
    standard vertex-program formulation (what Galois/Gluon's push PR
    computes); ``tests/support/kernel_reference.py`` holds the matching
    reference implementation used to validate all simulators.

    Parameters
    ----------
    damping:
        damping factor ``d`` (default 0.85).
    tolerance:
        per-iteration L1-delta convergence threshold.
    max_iterations:
        iteration cap (PageRank runs a fixed horizon in the paper's traces).
    """

    name = "pagerank"
    message = MessageSpec(value_bytes=8, reduce="sum")  # 16 B updates (§IV.A)
    prop_push_bytes = 16  # 8 B id + 8 B rank pushed near-data per frontier vertex
    compute = ComputeProfile(
        traverse_flops_per_edge=1.0,  # accumulate rank/deg contribution
        traverse_intops_per_edge=1.0,  # edge decode / index arithmetic
        apply_flops_per_update=2.0,  # damp + add base rank
        apply_intops_per_update=1.0,
        needs_fp=True,
        needs_int_muldiv=False,
    )

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-8,
        max_iterations: int = 50,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        self.damping = float(damping)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        n = graph.num_vertices
        state = KernelState(graph=graph)
        state.props["rank"] = np.full(n, 1.0 / max(n, 1))
        # Precompute inverse out-degree once; traversal multiplies by it.
        out_deg = graph.out_degrees.astype(np.float64)
        inv = np.zeros(n)
        nonzero = out_deg > 0
        inv[nonzero] = 1.0 / out_deg[nonzero]
        state.props["inv_out_degree"] = inv
        state.frontier = np.arange(n, dtype=np.int64)
        state.scalars["l1_delta"] = np.inf
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        # Multiply per vertex, then gather once per edge: each edge gets the
        # IEEE product of its source's two operands, as a per-edge multiply
        # would.
        return (state.prop("rank") * state.prop("inv_out_degree"))[src]

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        n = state.num_vertices
        rank = state.prop("rank")
        base = (1.0 - self.damping) / max(n, 1)
        new_rank = np.full(n, base)
        new_rank[touched] += self.damping * reduced
        delta = np.abs(new_rank - rank)
        state.scalars["l1_delta"] = float(delta.sum())
        changed = np.nonzero(delta > self.tolerance)[0].astype(np.int64)
        rank[:] = new_rank
        return changed

    def update_frontier(
        self, state: KernelState, changed: np.ndarray
    ) -> np.ndarray:
        # Topology-driven: all vertices stay active until global convergence.
        return np.arange(state.num_vertices, dtype=np.int64)

    def has_converged(self, state: KernelState) -> bool:
        return state.scalars.get("l1_delta", np.inf) <= self.tolerance

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("rank")
