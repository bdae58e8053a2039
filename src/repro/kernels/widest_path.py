"""Widest path (maximum bottleneck capacity) — a ``max`` reduction kernel.

From the source, the width of a path is its minimum edge weight; each
vertex's score is the maximum width over all paths.  Exercises the third
reduction operator (``max``) end to end, and is the classic network-flow
prefilter (bottleneck shortest path).
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


class WidestPath(VertexProgram):
    """Maximum bottleneck-capacity path widths from ``source``."""

    name = "widest-path"
    message = MessageSpec(value_bytes=8, reduce="max")  # candidate width
    prop_push_bytes = 16
    compute = ComputeProfile(
        traverse_flops_per_edge=1.0,  # min(width, weight)
        traverse_intops_per_edge=1.0,
        apply_flops_per_update=1.0,  # max against current width
        apply_intops_per_update=1.0,
        needs_fp=True,
        needs_int_muldiv=False,
    )
    needs_source = True
    uses_weights = True

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        src = self.check_source(graph, source)
        state = KernelState(graph=graph)
        width = np.zeros(graph.num_vertices)
        width[src] = np.inf  # the source has unbounded capacity to itself
        state.props["width"] = width
        state.frontier = np.asarray([src], dtype=np.int64)
        return state

    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        return np.minimum(state.prop("width")[src], weights)

    def apply(
        self, state: KernelState, touched: np.ndarray, reduced: np.ndarray
    ) -> np.ndarray:
        width = state.prop("width")
        improved = reduced > width[touched]
        winners = touched[improved]
        width[winners] = reduced[improved]
        return winners

    def result(self, state: KernelState) -> np.ndarray:
        return state.prop("width")
