"""Test-side traversals: BFS parents, frontiers and weak components.

Plain NumPy, level-synchronous and independent of the engine; the kernel
oracles and the graph tests compare against them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import _gather, bfs_levels


def bfs_parents(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS parents array (-1 = unreached, source's parent is itself)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range [0, {n})")
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source
    frontier = np.asarray([source], dtype=np.int64)
    while frontier.size:
        starts = graph.indptr[frontier]
        lens = graph.indptr[frontier + 1] - starts
        nbrs = _gather(graph.indices, starts, lens)
        srcs = np.repeat(frontier, lens)
        undiscovered = parents[nbrs] < 0
        nbrs, srcs = nbrs[undiscovered], srcs[undiscovered]
        if nbrs.size == 0:
            break
        # First writer wins deterministically: keep the first occurrence.
        uniq, first = np.unique(nbrs, return_index=True)
        parents[uniq] = srcs[first]
        frontier = uniq
    return parents


def connected_component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of weakly connected components, descending."""
    labels = weak_component_labels(graph)
    counts = np.bincount(labels) if labels.size else np.empty(0, dtype=np.int64)
    counts = counts[counts > 0]  # labels are min vertex ids, not dense
    return np.sort(counts)[::-1].astype(np.int64)


def weak_component_labels(graph: CSRGraph) -> np.ndarray:
    """Weakly-connected-component label per vertex via pointer jumping.

    Uses the Shiloach–Vishkin style hook-and-compress loop on the
    symmetrized edge set; labels are the minimum vertex id in the component.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0:
        return labels
    src, dst = graph.edge_array()
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    while True:
        # Hook: point each vertex's label at the smallest neighbor label.
        cand = labels[d]
        new_labels = labels.copy()
        np.minimum.at(new_labels, s, cand)
        changed = new_labels < labels
        if not changed.any():
            break
        labels = new_labels
        # Compress: pointer jumping until fixpoint.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    return labels


def reachable_vertices(graph: CSRGraph, source: int) -> np.ndarray:
    """Ids of vertices reachable from ``source`` (including it)."""
    levels = bfs_levels(graph, source)
    return np.nonzero(levels >= 0)[0].astype(np.int64)


def frontier_sequence(graph: CSRGraph, source: int) -> "list[np.ndarray]":
    """The list of BFS frontiers from ``source`` — handy for frontier-driven tests."""
    levels = bfs_levels(graph, source)
    max_level = int(levels.max())
    return [
        np.nonzero(levels == depth)[0].astype(np.int64)
        for depth in range(max_level + 1)
    ]
