"""Push vs pull traversal direction analysis for frontier kernels.

Direction-optimizing BFS (Beamer et al.) switches between *push* (scan the
frontier's out-edges) and *pull* (scan the undiscovered vertices' in-edges)
as the frontier waxes and wanes.  On a disaggregated NDP system the same
switch changes what crosses the network:

* **push offload** — frontier property push + one partial update per
  (destination, memory node) pair (what the NDP simulator measures);
* **pull offload** — a frontier membership bitmap to every memory node
  (``ceil(n/8)`` bytes each) + exactly one update per *newly discovered*
  vertex: the dense-frontier iterations that flood push with partial
  updates produce almost nothing under pull.

The profile reads one BFS run: its levels, and the per-iteration bytes
the fetch and NDP deployments measured when replaying the run's trace.
Both directions discover the same vertices, so the pull costs are closed
forms over the levels and no second traversal is needed.  Picking the
cheaper offload direction per iteration is the byte-cost analogue of
Beamer's α/β heuristic, a further decision the paper's runtime would own:
not just *whether* and *where* to offload, but *in which direction*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.kernels.base import VERTEX_ID_BYTES, VertexProgram


def pull_iteration_bytes(
    *,
    num_vertices: int,
    num_parts: int,
    discovered_next: int,
    wire_bytes: int,
) -> int:
    """Host-link bytes of one pull-offload iteration.

    Bitmap broadcast to each memory node + one update per discovery.
    """
    bitmap = int(np.ceil(num_vertices / 8))
    return bitmap * num_parts + wire_bytes * discovered_next


@dataclass(frozen=True)
class DirectionProfile:
    """Per-iteration byte costs of the four (direction x placement) modes."""

    iterations: int
    push_offload: np.ndarray  # measured by the NDP replay
    pull_offload: np.ndarray  # analytic
    push_fetch: np.ndarray  # measured by the fetch replay
    pull_fetch: np.ndarray  # analytic (in-edge fetch of candidates)
    frontier: np.ndarray
    discovered: np.ndarray

    def best_mode_per_iteration(self) -> List[str]:
        """Cheapest of the four modes per iteration."""
        stack = {
            "push-offload": self.push_offload,
            "pull-offload": self.pull_offload,
            "push-fetch": self.push_fetch,
            "pull-fetch": self.pull_fetch,
        }
        out = []
        for i in range(self.iterations):
            out.append(min(stack, key=lambda k: stack[k][i]))
        return out

    def adaptive_total(self) -> int:
        """Total bytes picking the best mode each iteration."""
        return int(
            np.minimum.reduce(
                [self.push_offload, self.pull_offload, self.push_fetch, self.pull_fetch]
            ).sum()
        )

    def totals(self) -> dict:
        """Whole-run totals per fixed mode plus the adaptive envelope."""
        return {
            "push-offload": int(self.push_offload.sum()),
            "pull-offload": int(self.pull_offload.sum()),
            "push-fetch": int(self.push_fetch.sum()),
            "pull-fetch": int(self.pull_fetch.sum()),
            "adaptive": self.adaptive_total(),
        }

    def offload_directions(self) -> List[str]:
        """The cheaper offload direction per iteration; a tie runs push."""
        return [
            "push" if push <= pull else "pull"
            for push, pull in zip(self.push_offload, self.pull_offload)
        ]

    def auto_offload_bytes(self) -> np.ndarray:
        """Per-iteration bytes of offload in the cheaper direction."""
        return np.minimum(self.push_offload, self.pull_offload)


def direction_profile(
    graph: CSRGraph,
    levels: np.ndarray,
    kernel: VertexProgram,
    *,
    num_parts: int,
    push_offload_bytes: np.ndarray,
    push_fetch_bytes: np.ndarray,
) -> DirectionProfile:
    """Price the leading iterations of a finished BFS-style run.

    Parameters
    ----------
    levels:
        per-vertex discovery level (-1 = unreached) from the run; iteration
        ``t`` scans level ``t`` and discovers level ``t + 1``.
    push_offload_bytes / push_fetch_bytes:
        per-iteration host-link bytes measured by the NDP and fetch replays
        of the run's trace, one entry per profiled iteration.
    """
    levels = np.asarray(levels)
    if levels.shape != (graph.num_vertices,):
        raise ReproError(
            f"levels must have shape ({graph.num_vertices},), got {levels.shape}"
        )
    push_off = np.asarray(push_offload_bytes, dtype=np.int64)
    push_fetch = np.asarray(push_fetch_bytes, dtype=np.int64)
    if push_off.shape != push_fetch.shape:
        raise ReproError(
            f"measured series differ in length: {push_off.size} push-offload, "
            f"{push_fetch.size} push-fetch iterations"
        )
    iterations = push_off.size
    if iterations < 1:
        raise ReproError("run has no iterations to profile")

    n = graph.num_vertices
    wire = kernel.message.wire_bytes
    in_deg = graph.in_degrees

    frontier_sizes = np.zeros(iterations, dtype=np.int64)
    discovered = np.zeros(iterations, dtype=np.int64)
    pull_fetch = np.zeros(iterations, dtype=np.int64)
    pull_off = np.zeros(iterations, dtype=np.int64)

    for t in range(iterations):
        candidates_mask = (levels > t) | (levels < 0)  # undiscovered at t
        frontier_sizes[t] = int((levels == t).sum())
        discovered[t] = int((levels == t + 1).sum())
        # pull-fetch: hosts request + fetch the candidates' in-edge lists.
        cand_in_edges = int(in_deg[candidates_mask].sum())
        pull_fetch[t] = VERTEX_ID_BYTES * int(candidates_mask.sum()) + 8 * cand_in_edges
        pull_off[t] = pull_iteration_bytes(
            num_vertices=n,
            num_parts=num_parts,
            discovered_next=int(discovered[t]),
            wire_bytes=wire,
        )

    return DirectionProfile(
        iterations=iterations,
        push_offload=push_off,
        pull_offload=pull_off,
        push_fetch=push_fetch,
        pull_fetch=pull_fetch,
        frontier=frontier_sizes,
        discovered=discovered,
    )
