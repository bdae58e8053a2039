"""Analytic data-movement cost model (the heart of the offload decision).

Section IV.D: "Heuristics such as the frontier size, the number of
cross-edges, and the degrees of the vertices in the frontier can be used to
determine the better alternative in every iteration."  This module turns
those heuristics into byte estimates for the three deployment alternatives
of one iteration:

* **fetch** (no offload) — pull the frontier's edge lists to the host:
  ``id_bytes * |F|`` of requests + ``edge_bytes * Σ outdeg(F)`` of payload;
* **offload** — push frontier properties near-data and receive one partial
  update per (destination, memory node) pair:
  ``prop_push * |F| + wire * Σ_p |D_p|``;
* **offload + INC** — same, but the switch merges partials per destination:
  ``prop_push * |F| + wire * |∪D_p|`` (buffer permitting).

The ``exact_*`` variant consumes measured counts (what the simulator also
records, so prediction == measurement is a tested invariant); the
``estimate_*`` variant replaces the unknown distinct-destination counts
with a balls-in-bins estimate computable *before* the iteration runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels.base import VERTEX_ID_BYTES, VertexProgram
from repro.net.switch import SwitchModel


def edge_record_bytes(kernel: VertexProgram) -> int:
    """Wire size of one edge record: 8 B id, plus 8 B weight when used."""
    return VERTEX_ID_BYTES + (8 if kernel.uses_weights else 0)


def frontier_push_bytes(
    kernel: VertexProgram,
    frontier_size: int,
    *,
    num_vertices: int = 0,
    num_parts: int = 1,
) -> int:
    """Bytes to propagate the frontier to the memory pool.

    Kernels whose traversal reads frontier *values* (PageRank ranks, CC
    labels) ship ``prop_push_bytes`` per frontier vertex.  Membership-only
    kernels (BFS — the message is the locally-known source id) ship the
    cheaper of point-to-point ids (8 B each, to the owning node) or a
    full-bitmap broadcast (``ceil(n/8)`` to every node) — what a real
    runtime would choose per iteration.
    """
    if kernel.pushes_values or num_vertices <= 0:
        return kernel.prop_push_bytes * frontier_size
    ids = VERTEX_ID_BYTES * frontier_size
    bitmap = int(np.ceil(num_vertices / 8)) * max(num_parts, 1)
    return min(ids, bitmap)


@dataclass(frozen=True)
class MovementEstimate:
    """Host-link byte costs of one iteration under each alternative."""

    fetch_bytes: float
    offload_bytes: float
    offload_inc_bytes: float

    def best(self, *, inc_available: bool = False) -> str:
        """The cheapest alternative: ``"fetch"``, ``"offload"`` or ``"offload+inc"``."""
        options = {"fetch": self.fetch_bytes, "offload": self.offload_bytes}
        if inc_available:
            options["offload+inc"] = self.offload_inc_bytes
        return min(options, key=options.get)  # type: ignore[arg-type]

    @property
    def offload_wins(self) -> bool:
        return self.offload_bytes < self.fetch_bytes


def exact_movement(
    kernel: VertexProgram,
    *,
    frontier_size: int,
    edges_traversed: int,
    partial_pairs: int,
    distinct_destinations: int,
    switch: Optional[SwitchModel] = None,
    updates_per_destination: Optional[np.ndarray] = None,
    num_vertices: int = 0,
    num_parts: int = 1,
) -> MovementEstimate:
    """Closed-form movement from measured per-iteration counts.

    ``num_vertices``/``num_parts`` enable the compact frontier push for
    membership-only kernels; left at their defaults the push falls back to
    ``prop_push_bytes`` per frontier vertex.
    """
    wire = kernel.message.wire_bytes
    fetch = (
        VERTEX_ID_BYTES * frontier_size
        + edge_record_bytes(kernel) * edges_traversed
    )
    push = frontier_push_bytes(
        kernel, frontier_size, num_vertices=num_vertices, num_parts=num_parts
    )
    offload = push + wire * partial_pairs
    if switch is None:
        inc_updates = distinct_destinations + 0  # ideal, unbounded table
        inc = push + wire * inc_updates
    else:
        outcome = switch.aggregate(
            np.asarray([partial_pairs]),
            updates_per_destination,
            distinct_destinations,
            wire,
        )
        inc = push + outcome.bytes_out
    return MovementEstimate(
        fetch_bytes=float(fetch),
        offload_bytes=float(offload),
        offload_inc_bytes=float(inc),
    )


def estimate_distinct_destinations(edges: float, num_vertices: int) -> float:
    """Balls-in-bins estimate of distinct destinations hit by ``edges`` draws.

    ``E[distinct] = n * (1 - (1 - 1/n)^e) ≈ n * (1 - exp(-e/n))`` — the
    standard occupancy approximation, exact in expectation for uniformly
    random destinations and a (tested) upper-bound-ish proxy for skewed
    ones.
    """
    if num_vertices <= 0 or edges <= 0:
        return 0.0
    return float(num_vertices * -np.expm1(-edges / num_vertices))


def estimate_distinct_destinations_per_part(
    edges: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Vectorized :func:`estimate_distinct_destinations` over a per-part
    edge-mass array — bit-identical to the scalar form elementwise (same
    float64 ufunc chain), but one numpy call instead of a Python loop, so
    the per-iteration policies can afford it on the hot path."""
    edges = np.asarray(edges, dtype=np.float64)
    if num_vertices <= 0:
        return np.zeros_like(edges)
    return np.where(
        edges > 0, num_vertices * -np.expm1(-edges / num_vertices), 0.0
    )


def estimate_movement(
    kernel: VertexProgram,
    *,
    frontier_size: int,
    edges_traversed: int,
    num_vertices: int,
    num_parts: int,
    edges_per_part: Optional[np.ndarray] = None,
) -> MovementEstimate:
    """Pre-iteration movement estimate from frontier statistics only.

    ``edges_per_part`` (the frontier's out-degree mass per memory node,
    cheap to maintain from the partition map) sharpens the partial-pair
    estimate; without it the edge mass is assumed evenly spread.
    """
    if edges_per_part is None:
        edges_per_part = np.full(num_parts, edges_traversed / max(num_parts, 1))
    # Summed left to right in part order; np.sum adds pairwise and can
    # round differently.
    partial_pairs = sum(
        estimate_distinct_destinations_per_part(edges_per_part, num_vertices).tolist()
    )
    return exact_movement(
        kernel,
        frontier_size=frontier_size,
        edges_traversed=edges_traversed,
        partial_pairs=partial_pairs,
        distinct_destinations=estimate_distinct_destinations(
            edges_traversed, num_vertices
        ),
        num_vertices=num_vertices,
        num_parts=num_parts,
    )
