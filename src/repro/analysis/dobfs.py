"""Executable direction-optimizing BFS on the disaggregated NDP model.

Unlike :mod:`repro.analysis.direction` (which profiles a finished run
analytically), this module *executes* BFS switching per iteration between:

* **push** — memory nodes traverse the frontier's out-edge shards and ship
  one partial update per (destination, node) pair (identical accounting to
  the simulators' BFS, which a test asserts), and
* **pull** — hosts broadcast a frontier bitmap; memory nodes scan the
  *undiscovered* vertices' in-edge shards and ship one update per vertex
  they discover.

The ``auto`` policy picks the direction with the lower modeled movement —
the byte-cost analogue of Beamer's α/β heuristic, and a concrete instance
of the per-iteration decisions Section IV.D argues future runtimes need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.analysis.direction import pull_iteration_bytes
from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import gather_neighbor_slices
from repro.kernels.bfs import BFS
from repro.partition.base import PartitionAssignment, ProfileScratch, distinct_pairs
from repro.partition.random_hash import HashPartitioner

_DIRECTIONS = ("auto", "push", "pull")


@dataclass(frozen=True)
class DOBFSIteration:
    """One executed direction-optimized BFS iteration."""

    iteration: int
    direction: str  # "push" or "pull"
    frontier_size: int
    candidates: int  # undiscovered vertices considered (pull) or 0
    edges_examined: int
    discovered: int
    host_link_bytes: int
    push_cost_bytes: int  # the modeled cost of each alternative
    pull_cost_bytes: int


@dataclass
class DOBFSResult:
    """Levels plus the per-iteration direction/movement record."""

    levels: np.ndarray
    iterations: List[DOBFSIteration] = field(default_factory=list)

    @property
    def total_host_link_bytes(self) -> int:
        return sum(it.host_link_bytes for it in self.iterations)

    def directions(self) -> List[str]:
        return [it.direction for it in self.iterations]

    def per_iteration_bytes(self) -> np.ndarray:
        return np.asarray(
            [it.host_link_bytes for it in self.iterations], dtype=np.int64
        )


def run_direction_optimized_bfs(
    graph: CSRGraph,
    source: int,
    *,
    num_parts: int = 8,
    assignment: Optional[PartitionAssignment] = None,
    direction: str = "auto",
    seed: int = 0,
) -> DOBFSResult:
    """Run BFS with per-iteration push/pull selection and byte accounting.

    Parameters
    ----------
    direction:
        ``"auto"`` (pick the cheaper modeled direction each iteration),
        or force ``"push"`` / ``"pull"``.
    """
    if direction not in _DIRECTIONS:
        raise ConfigError(
            f"direction must be one of {_DIRECTIONS}, got {direction!r}"
        )
    n = graph.num_vertices
    if not 0 <= source < n:
        raise SimulationError(f"source {source} out of range [0, {n})")
    if assignment is None:
        assignment = HashPartitioner().partition(graph, num_parts, seed=seed)
    elif assignment.num_vertices != n:
        raise SimulationError("assignment does not cover the graph")
    else:
        num_parts = assignment.num_parts
    parts = assignment.parts
    reverse = graph.reverse()
    kernel = BFS()

    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    result = DOBFSResult(levels=levels)
    iteration = 0

    while frontier.size:
        unvisited = np.nonzero(levels < 0)[0]
        push_cost, push_stats = _push_cost(graph, frontier, parts, num_parts, kernel)
        dst = push_stats["dst"]
        fresh_push = (
            np.unique(dst[levels[dst] < 0]) if dst.size else np.empty(0, dtype=np.int64)
        )
        discovered_count = int(fresh_push.size)
        pull_cost = pull_iteration_bytes(
            num_vertices=n,
            num_parts=num_parts,
            discovered_next=discovered_count,
            wire_bytes=kernel.message.wire_bytes,
        )

        if direction == "push":
            chosen = "push"
        elif direction == "pull":
            chosen = "pull"
        else:
            chosen = "push" if push_cost <= pull_cost else "pull"

        if chosen == "push":
            fresh = fresh_push
            edges_examined = push_stats["edges"]
            candidates = 0
            nbytes = push_cost
        else:
            fresh, edges_examined = _pull_step(
                reverse, levels, unvisited, iteration
            )
            if not np.array_equal(np.sort(fresh), np.sort(fresh_push)):
                raise SimulationError(
                    "pull discovered a different vertex set than push"
                )
            candidates = int(unvisited.size)
            nbytes = pull_cost

        levels[fresh] = iteration + 1
        result.iterations.append(
            DOBFSIteration(
                iteration=iteration,
                direction=chosen,
                frontier_size=int(frontier.size),
                candidates=candidates,
                edges_examined=int(edges_examined),
                discovered=int(fresh.size),
                host_link_bytes=int(nbytes),
                push_cost_bytes=int(push_cost),
                pull_cost_bytes=int(pull_cost),
            )
        )
        frontier = fresh
        iteration += 1

    return result


def _push_cost(graph, frontier, parts, num_parts, kernel):
    """Movement and discoveries of a push iteration (simulator-identical)."""
    starts = graph.indptr[frontier]
    lens = graph.indptr[frontier + 1] - starts
    from repro.graph.traversal import _gather

    dst = _gather(graph.indices, starts, lens)
    _, pair_dst, _, _ = distinct_pairs(
        dst,
        np.repeat(parts[frontier], lens),
        num_parts,
        graph.num_vertices,
        ProfileScratch(),
    )
    pairs = int(pair_dst.size)
    from repro.runtime.cost_model import frontier_push_bytes

    push = frontier_push_bytes(
        kernel,
        int(frontier.size),
        num_vertices=graph.num_vertices,
        num_parts=num_parts,
    )
    cost = push + kernel.message.wire_bytes * pairs
    return cost, {"edges": int(dst.size), "pairs": pairs, "dst": dst}


def _pull_step(reverse, levels, unvisited, iteration):
    """Scan undiscovered vertices' in-edges; return (fresh, edges_examined)."""
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64), 0
    starts = reverse.indptr[unvisited]
    lens = reverse.indptr[unvisited + 1] - starts
    nbrs = gather_neighbor_slices(reverse, unvisited)
    owners = np.repeat(unvisited, lens)
    hit = levels[nbrs] == iteration
    fresh = np.unique(owners[hit])
    return fresh, int(nbrs.size)
