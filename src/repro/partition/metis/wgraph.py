"""Weighted undirected working graph for the multilevel partitioner.

The partitioner operates on a symmetrized view of the input with integer
edge weights (parallel edges merged by summing — a contracted edge's weight
is the number of fine edges it represents) and vertex weights (a coarse
vertex's weight is the number of fine vertices it contains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class WorkGraph:
    """Symmetric weighted CSR graph used internally by METIS stages."""

    indptr: np.ndarray  # int64[n + 1]
    indices: np.ndarray  # int64[m]
    eweights: np.ndarray  # int64[m]
    vweights: np.ndarray  # int64[n]

    @property
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Directed entry count (2x the undirected edge count)."""
        return int(self.indices.size)

    @property
    def total_vweight(self) -> int:
        return int(self.vweights.sum())

    def neighbors(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, edge_weights)`` of vertex ``u``."""
        a, b = self.indptr[u], self.indptr[u + 1]
        return self.indices[a:b], self.eweights[a:b]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])


def from_csr(graph: CSRGraph) -> WorkGraph:
    """Build a :class:`WorkGraph` from a directed :class:`CSRGraph`.

    Edges are symmetrized; a pair connected in both directions (or by
    parallel edges) gets a proportionally larger weight, so the partitioner
    values mutual links more — matching how METIS is fed in the paper.
    """
    src, dst = graph.edge_array()
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    keep = s != d
    s, d = s[keep], d[keep]
    n = graph.num_vertices
    return build(n, s, d, np.ones(s.size, dtype=np.int64), np.ones(n, dtype=np.int64))


def build(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    eweights: np.ndarray,
    vweights: np.ndarray,
) -> WorkGraph:
    """Assemble a WorkGraph from (already symmetric) edge arrays.

    Parallel edges are merged by summing their weights.
    """
    if src.size:
        keys = src * np.int64(num_vertices) + dst
        uniq, inverse = np.unique(keys, return_inverse=True)
        w = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(w, inverse, eweights)
        s = (uniq // num_vertices).astype(np.int64)
        d = (uniq % num_vertices).astype(np.int64)
    else:
        s = np.empty(0, dtype=np.int64)
        d = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.int64)
    counts = np.bincount(s, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return WorkGraph(
        indptr=indptr,
        indices=d,
        eweights=w,
        vweights=np.asarray(vweights, dtype=np.int64),
    )


def induced_subgraph(
    wg: WorkGraph, vertices: np.ndarray
) -> Tuple[WorkGraph, np.ndarray]:
    """Induced sub-WorkGraph; returns ``(sub, original_ids)``."""
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    remap = np.full(wg.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size, dtype=np.int64)
    src = np.repeat(
        np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr)
    )
    keep = (remap[src] >= 0) & (remap[wg.indices] >= 0)
    sub = build(
        vertices.size,
        remap[src[keep]],
        remap[wg.indices[keep]],
        wg.eweights[keep],
        wg.vweights[vertices],
    )
    return sub, vertices
