"""Vectorized CSR gathers and level-synchronous BFS.

The engine, the mirror and profile passes, LDG's crawl-order stream and
the BFS-growing partitioner gather ragged CSR slices through these.  The
test-side traversals they are checked against live in ``tests/support``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def _gather_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat positions of the ragged slices ``[starts[i], starts[i] + lens[i])``.

    Output slot ``k`` inside slice ``i`` reads ``starts[i] + k - offsets[i]``,
    where ``offsets`` are the exclusive prefix sums of ``lens``: one repeat
    of the per-slice ``starts - offsets`` plus ``arange(total)`` gives every
    position.  Take several arrays through one result to gather them all.
    """
    offsets = np.cumsum(lens) - lens
    positions = np.repeat(starts - offsets, lens)
    positions += np.arange(positions.size, dtype=positions.dtype)
    return positions


def _gather(indices: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorized gather of ragged slices ``indices[starts[i]:starts[i]+lens[i]]``."""
    return indices[_gather_positions(starts, lens)]


def gather_neighbor_slices(graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated out-neighbor ids of ``vertices`` (duplicates preserved)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = graph.indptr[vertices]
    lens = graph.indptr[vertices + 1] - starts
    return _gather(graph.indices, starts, lens)


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Level-synchronous BFS; returns ``int64[n]`` levels (-1 = unreached)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range [0, {n})")
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nbrs = gather_neighbor_slices(graph, frontier)
        fresh = np.unique(nbrs[levels[nbrs] < 0]) if nbrs.size else nbrs
        if fresh.size == 0:
            break
        levels[fresh] = depth
        frontier = fresh
    return levels
