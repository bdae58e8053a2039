"""Trusted host-side reference implementations.

Every architecture simulator must reproduce these results exactly (they run
the same arithmetic in matrix/array form).  Tests additionally cross-check
the references against networkx/scipy where semantics align.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_levels, weak_component_labels


def _adjacency(graph: CSRGraph, *, weighted: bool = False) -> sp.csr_matrix:
    src, dst = graph.edge_array()
    if weighted:
        data = graph.weights if graph.weights is not None else np.ones(src.size)
    else:
        data = np.ones(src.size)
    n = graph.num_vertices
    return sp.csr_matrix((data, (src, dst)), shape=(n, n))


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 50,
) -> np.ndarray:
    """Power iteration of the vertex-program PageRank recurrence.

    Matches :class:`repro.kernels.pagerank.PageRank` exactly: no dangling
    redistribution, L1 convergence, same iteration cap.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0)
    out_deg = graph.out_degrees.astype(np.float64)
    inv = np.zeros(n)
    inv[out_deg > 0] = 1.0 / out_deg[out_deg > 0]
    adj_t = _adjacency(graph).T.tocsr()
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iterations):
        new_rank = base + damping * adj_t.dot(rank * inv)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta <= tolerance:
            break
    return rank


def bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS levels (-1 = unreached); delegates to the traversal reference."""
    return bfs_levels(graph, source)


def sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Shortest distances from ``source`` (unit weights when unweighted)."""
    if not 0 <= source < graph.num_vertices:
        raise KernelError(
            f"source {source} out of range [0, {graph.num_vertices})"
        )
    adj = _adjacency(graph, weighted=True)
    dist = sp.csgraph.dijkstra(adj, directed=True, indices=source)
    return np.asarray(dist).ravel()


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Weak-component labels (min vertex id per component)."""
    return weak_component_labels(graph)


def in_degree(graph: CSRGraph) -> np.ndarray:
    """In-degree of every vertex."""
    return graph.in_degrees


def kcore(graph: CSRGraph, k: int) -> np.ndarray:
    """Boolean k-core membership on the symmetrized graph (simple peeling)."""
    und = graph.symmetrized()
    degree = und.out_degrees.copy()
    alive = np.ones(und.num_vertices, dtype=bool)
    while True:
        doomed = np.nonzero(alive & (degree < k))[0]
        if doomed.size == 0:
            break
        alive[doomed] = False
        for v in doomed:
            nbrs = und.neighbors(int(v))
            np.subtract.at(degree, nbrs[alive[nbrs]], 1)
    return alive


def personalized_pagerank(
    graph: CSRGraph,
    source: int,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 50,
) -> np.ndarray:
    """Power iteration of the personalized PageRank recurrence."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise KernelError(f"source {source} out of range [0, {n})")
    out_deg = graph.out_degrees.astype(np.float64)
    inv = np.zeros(n)
    inv[out_deg > 0] = 1.0 / out_deg[out_deg > 0]
    adj_t = _adjacency(graph).T.tocsr()
    rank = np.zeros(n)
    rank[source] = 1.0
    teleport = np.zeros(n)
    teleport[source] = 1.0 - damping
    for _ in range(max_iterations):
        new_rank = teleport + damping * adj_t.dot(rank * inv)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta <= tolerance:
            break
    return rank


def widest_path(graph: CSRGraph, source: int) -> np.ndarray:
    """Maximum bottleneck widths via a binary-heap Dijkstra variant."""
    import heapq

    n = graph.num_vertices
    if not 0 <= source < n:
        raise KernelError(f"source {source} out of range [0, {n})")
    weights = (
        graph.weights if graph.weights is not None else np.ones(graph.num_edges)
    )
    width = np.zeros(n)
    width[source] = np.inf
    # Max-heap on width (negate for heapq).
    heap = [(-np.inf, source)]
    done = np.zeros(n, dtype=bool)
    while heap:
        neg_w, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        a, b = graph.indptr[u], graph.indptr[u + 1]
        for v, w_edge in zip(graph.indices[a:b].tolist(), weights[a:b].tolist()):
            cand = min(-neg_w, w_edge)
            if cand > width[v]:
                width[v] = cand
                heapq.heappush(heap, (-cand, v))
    return width


def compare_distances(a: np.ndarray, b: np.ndarray, *, rtol: float = 1e-9) -> bool:
    """Distance-array equality treating inf == inf."""
    both_inf = np.isinf(a) & np.isinf(b)
    finite = ~both_inf
    return bool(
        np.all(np.isinf(a) == np.isinf(b))
        and np.allclose(a[finite], b[finite], rtol=rtol)
    )
