"""Personalized PageRank — rooted random-walk scores.

Same wire format and compute shape as global PageRank, but the teleport
mass concentrates at a source vertex, so the *effective* frontier (vertices
with non-negligible rank) stays localized — a workload whose movement
profile sits between BFS's bursty frontier and PageRank's all-active one.
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


class PersonalizedPageRank(VertexProgram):
    """PPR with teleport vector concentrated at ``source``.

    Recurrence: ``rank' = (1 - d)·e_src + d · Σ_in rank/outdeg``.
    """

    name = "ppr"
    message = MessageSpec(value_bytes=8, reduce="sum")
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=1.0,
        traverse_intops_per_edge=1.0,
        apply_flops_per_update=2.0,
        apply_intops_per_update=1.0,
        needs_fp=True,
        needs_int_muldiv=False,
    )
    needs_source = True

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-10,
        max_iterations: int = 50,
        *,
        active_threshold: float = 0.0,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if tolerance < 0 or active_threshold < 0:
            raise ValueError("tolerance/active_threshold must be >= 0")
        self.damping = float(damping)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        #: vertices below this rank are dropped from the frontier — the
        #: sparse "forward push" style activation
        self.active_threshold = float(active_threshold)

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        src = self.check_source(graph, source)
        n = graph.num_vertices
        state = KernelState(graph=graph)
        rank = np.zeros(n)
        rank[src] = 1.0
        state.props["rank"] = rank
        out_deg = graph.out_degrees.astype(np.float64)
        inv = np.zeros(n)
        inv[out_deg > 0] = 1.0 / out_deg[out_deg > 0]
        state.props["inv_out_degree"] = inv
        state.scalars["source"] = float(src)
        state.scalars["l1_delta"] = np.inf
        state.frontier = np.asarray([src], dtype=np.int64)
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
        rank = state.prop("rank")
        source = int(state.scalars["source"])
        new_rank = np.zeros_like(rank)
        new_rank[source] = 1.0 - self.damping
        new_rank[touched] += self.damping * reduced
        delta = np.abs(new_rank - rank)
        state.scalars["l1_delta"] = float(delta.sum())
        rank[:] = new_rank
        return np.nonzero(delta > self.tolerance)[0].astype(np.int64)

    def update_frontier(
        self, state: KernelState, changed: np.ndarray
    ) -> np.ndarray:
        # Active set: every vertex currently holding rank mass worth
        # propagating.  With threshold 0 this is "rank > 0" — localized
        # early, converging to the source's reachable set.
        rank = state.prop("rank")
        return np.nonzero(rank > self.active_threshold)[0].astype(np.int64)

    def has_converged(self, state: KernelState) -> bool:
        return state.scalars.get("l1_delta", np.inf) <= self.tolerance

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("rank")
