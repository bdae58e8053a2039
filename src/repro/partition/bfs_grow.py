"""BFS region-growing partitioner.

A cheap locality-aware scheme: grow parts breadth-first from random seeds
until each reaches its vertex budget.  Much better cut than hashing on
graphs with community structure, much cheaper than multilevel METIS —
a useful mid-point in the Fig. 6 trade-off space.

Expansion was always frontier-batched; this version removes the remaining
scalar bottlenecks while staying bit-identical to the scalar reference
(``bfs_grow_reference`` in ``tests/support/partition_reference.py``) for
every seed:

* the next-seed scan streams over blocks of the random order exactly once
  (:class:`_SeedScanner`), and isolated seeds are drained inline instead of
  paying one full expansion iteration each;
* the unassigned set is tracked in a ``bytearray`` shared with a numpy
  ``uint8`` view, so scalar membership tests cost a list read and the
  vectorized path replaces ``np.unique``'s sort with a mark-array sweep;
* tiny frontiers (the common case on fragmented graphs) expand in plain
  Python, large ones through one CSR gather — both produce the same
  sorted-unique frontier, so the placement sequence is identical;
* the leftover assignment is one water-filling pass
  (:func:`~repro.partition.base.fill_lightest`).  On sparse skewed graphs
  with many isolated vertices (wiki-Talk-like), that loop used to dominate
  the whole partition.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import gather_neighbor_slices
from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    fill_lightest,
    symmetrized_structure,
)
from repro.utils.rng import SeedLike, ensure_rng

#: Block length for the next-unassigned-seed scan.
_SCAN_BLOCK = 4096

#: Frontier sizes at or below this come back from the vectorized path as
#: Python lists, keeping follow-up steps on the scalar fast path.
_SMALL_FRONTIER = 32

#: Total gathered-neighbor budget for the Python path; beyond it the
#: frontier is promoted to the vectorized gather pipeline.
_SMALL_NEIGHBORS = 128


class _SeedScanner:
    """Streaming scan for the next unassigned vertex in a fixed order.

    Each block of ``order`` is examined exactly once: every unassigned
    position found is buffered, and :meth:`next_unassigned` pops the buffer,
    re-checking membership on the way out (a buffered vertex may have been
    absorbed by frontier growth since the scan — vertices never *un*assign,
    so a stale hit is simply skipped).  Total cost is O(n) vectorized work
    per partition run no matter how many seed jumps occur, where the naive
    scan-from-cursor re-read its block on every call.
    """

    __slots__ = ("_free", "_unassigned", "_order", "_cursor", "_hits", "_hit_idx")

    def __init__(
        self, free: bytearray, unassigned: np.ndarray, order: np.ndarray
    ) -> None:
        self._free = free
        self._unassigned = unassigned
        self._order = order
        self._cursor = 0
        self._hits: list = []
        self._hit_idx = 0

    def next_unassigned(self) -> int:
        """Position of the next unassigned vertex, or ``order.size``."""
        free, order = self._free, self._order
        n = order.size
        while True:
            while self._hit_idx < len(self._hits):
                pos = self._hits[self._hit_idx]
                self._hit_idx += 1
                if free[order[pos]]:
                    return pos
            if self._cursor >= n:
                return n
            block = order[self._cursor : self._cursor + _SCAN_BLOCK]
            self._hits = (
                self._cursor + np.flatnonzero(self._unassigned[block])
            ).tolist()
            self._hit_idx = 0
            self._cursor += block.size


class BFSGrowPartitioner(Partitioner):
    """Grow ``num_parts`` regions breadth-first on the symmetrized graph."""

    name = "bfs"

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        rng = ensure_rng(seed)
        n = graph.num_vertices
        if n == 0:
            return PartitionAssignment(np.empty(0, dtype=np.int64), num_parts)
        und = symmetrized_structure(graph)
        parts = np.full(n, -1, dtype=np.int64)
        budget = _budgets(n, num_parts).tolist()
        unvisited_order = rng.permutation(n)
        indptr, indices = und.indptr, und.indices
        # The unassigned set, twice: a bytearray for ~40ns scalar membership
        # tests in the Python path, and a numpy uint8 view *sharing its
        # memory* for the vectorized path.  1 = unassigned.
        free = bytearray(b"\x01") * n
        unassigned = np.frombuffer(free, dtype=np.uint8)
        # Scratch for sorted-unique frontier extraction without a sort.
        mark = np.zeros(n, dtype=bool)
        scanner = _SeedScanner(free, unassigned, unvisited_order)

        for p in range(num_parts):
            remaining = budget[p]
            # Seed: next unassigned vertex in the random order.
            cursor = scanner.next_unassigned()
            if cursor >= n:
                break
            seed_vertex = int(unvisited_order[cursor])
            parts[seed_vertex] = p
            free[seed_vertex] = 0
            remaining -= 1
            # Small frontiers live as Python lists: on fragmented graphs
            # almost every expansion touches a handful of vertices, where
            # interpreter-level set arithmetic beats the numpy pipeline by
            # ~5x.  Large frontiers switch to one CSR gather plus a
            # mark-array dedup (sorted ids for free, no sort).  Both paths
            # produce the same sorted-unique frontier, so the placement
            # sequence is bit-identical either way.
            frontier: list | np.ndarray = [seed_vertex]
            while remaining > 0 and len(frontier) > 0:
                small = isinstance(frontier, list)
                if small:
                    degree_total = 0
                    for v in frontier:
                        degree_total += indptr[v + 1] - indptr[v]
                    if degree_total > _SMALL_NEIGHBORS:
                        frontier = np.asarray(frontier, dtype=np.int64)
                        small = False
                fresh: list | np.ndarray
                if small:
                    if degree_total:
                        cand = set()
                        for v in frontier:
                            for u in indices[indptr[v] : indptr[v + 1]].tolist():
                                if free[u]:
                                    cand.add(u)
                        fresh = sorted(cand)
                    else:
                        fresh = []
                else:
                    nbrs = gather_neighbor_slices(und, frontier)
                    cand = nbrs[unassigned[nbrs] != 0]
                    if cand.size:
                        # Sorted unique without sorting: scatter into the
                        # mark array, sweep it, clear the touched slots.
                        mark[cand] = True
                        fresh = np.flatnonzero(mark)
                        mark[fresh] = False
                        if fresh.size <= _SMALL_FRONTIER:
                            fresh = fresh.tolist()
                    else:
                        fresh = []
                if len(fresh) == 0:
                    # Region exhausted its component; jump to a new seed.
                    # Isolated seeds (no neighbors) can never grow, so they
                    # are drained inline — each consumes one budget slot of
                    # this part in scan order, exactly as the generic loop
                    # would place it one iteration at a time.
                    fresh = []
                    while remaining > 0:
                        cursor = scanner.next_unassigned()
                        if cursor >= n:
                            break
                        v = int(unvisited_order[cursor])
                        if indptr[v + 1] > indptr[v]:
                            fresh = [v]
                            break
                        parts[v] = p
                        free[v] = 0
                        remaining -= 1
                    if len(fresh) == 0:
                        break
                if len(fresh) > remaining:
                    fresh = fresh[:remaining]
                if isinstance(fresh, list):
                    for u in fresh:
                        parts[u] = p
                        free[u] = 0
                else:
                    parts[fresh] = p
                    unassigned[fresh] = 0
                remaining -= len(fresh)
                frontier = fresh

        # Any stragglers (disconnected leftovers) go to the lightest parts —
        # one water-filling pass, identical to assigning each in id order to
        # the then-lightest part.
        leftover = np.flatnonzero(unassigned)
        if leftover.size:
            sizes = np.bincount(parts[parts >= 0], minlength=num_parts)
            parts[leftover] = fill_lightest(sizes, leftover.size)
        return PartitionAssignment(parts, num_parts)


def _budgets(n: int, k: int) -> np.ndarray:
    """Vertex budget per part: n/k with remainder over the first parts."""
    base = n // k
    budgets = np.full(k, base, dtype=np.int64)
    budgets[: n % k] += 1
    return budgets
