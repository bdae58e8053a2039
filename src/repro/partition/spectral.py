"""Spectral partitioner: recursive Fiedler-vector bisection.

The classic eigenvector approach: bisect along the second-smallest
eigenvector of the normalized graph Laplacian (the Fiedler vector), then
recurse.  Slower than multilevel METIS but a useful quality yardstick and
a second independent min-cut implementation for cross-checking Fig. 6's
partitioning sensitivity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment, Partitioner
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:
    import scipy.sparse as sp


class SpectralPartitioner(Partitioner):
    """Recursive bisection on the Fiedler vector of the symmetrized graph.

    Parameters
    ----------
    dense_threshold:
        below this vertex count the Laplacian eigenproblem is solved
        densely (more robust than Lanczos on tiny/disconnected pieces).
    """

    name = "spectral"

    def __init__(self, *, dense_threshold: int = 64) -> None:
        if dense_threshold < 4:
            raise ValueError(f"dense_threshold must be >= 4, got {dense_threshold}")
        self.dense_threshold = dense_threshold

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        rng = ensure_rng(seed)
        n = graph.num_vertices
        parts = np.zeros(n, dtype=np.int64)
        if num_parts > 1 and n > 0:
            und = graph.symmetrized().without_self_loops()
            adj = _adjacency(und)
            self._recurse(adj, np.arange(n, dtype=np.int64), num_parts, 0, parts, rng)
        return PartitionAssignment(parts, num_parts)

    # ------------------------------------------------------------------ #

    def _recurse(
        self,
        adj: sp.csr_matrix,
        ids: np.ndarray,
        k: int,
        offset: int,
        out: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        if k == 1 or ids.size <= 1:
            out[ids] = offset
            return
        k_left = (k + 1) // 2
        target = k_left / k
        side = self._fiedler_bisect(adj, target, rng)
        left = np.nonzero(side)[0]
        right = np.nonzero(~side)[0]
        if left.size == 0 or right.size == 0:
            half = max(1, int(round(target * ids.size)))
            left, right = np.arange(half), np.arange(half, ids.size)
        self._recurse(adj[left][:, left], ids[left], k_left, offset, out, rng)
        self._recurse(
            adj[right][:, right], ids[right], k - k_left, offset + k_left, out, rng
        )

    def _fiedler_bisect(
        self, adj: sp.csr_matrix, target_frac: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Bisect by an ordering that respects connectivity.

        Disconnected inputs make the Laplacian nullspace degenerate (every
        component contributes a zero eigenvalue), so the vertex ordering is
        built per component: small components are packed whole, and the
        largest component is ordered internally by its own Fiedler vector —
        the cut then crosses only that component, at its spectral boundary.
        """
        from scipy.sparse.csgraph import connected_components

        n = adj.shape[0]
        ncomp, labels = connected_components(adj, directed=False)
        if ncomp == 1:
            scores = self._fiedler_vector(adj, rng).astype(np.float64)
            order = np.argsort(scores)
        else:
            comp_ids, comp_sizes = np.unique(labels, return_counts=True)
            by_size = comp_ids[np.argsort(comp_sizes)]
            chunks = []
            for comp in by_size:
                members = np.nonzero(labels == comp)[0]
                if members.size == comp_sizes.max() and members.size > 2:
                    sub = adj[members][:, members]
                    inner = self._fiedler_vector(sub, rng)
                    members = members[np.argsort(inner)]
                chunks.append(members)
            order = np.concatenate(chunks)
        side = np.zeros(n, dtype=bool)
        take = min(n - 1, max(1, int(round(target_frac * n))))
        side[order[:take]] = True
        return side

    def _fiedler_vector(
        self, adj: sp.csr_matrix, rng: np.random.Generator
    ) -> np.ndarray:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = adj.shape[0]
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        lap = sp.diags(degrees) - adj
        if n <= self.dense_threshold:
            vals, vecs = np.linalg.eigh(lap.toarray())
            return vecs[:, np.argsort(vals)[1]] if n > 1 else np.zeros(n)
        try:
            # Shift-invert around 0 targets the smallest eigenvalues.
            vals, vecs = spla.eigsh(
                lap.asfptype(),
                k=2,
                sigma=-1e-3,
                which="LM",
                v0=rng.random(n),
                maxiter=2000,
            )
            return vecs[:, np.argsort(vals)[1]]
        except (spla.ArpackNoConvergence, RuntimeError):
            # Disconnected or ill-conditioned piece: degree-ordered split.
            return degrees + rng.random(n) * 1e-9


def _adjacency(graph: CSRGraph) -> sp.csr_matrix:
    import scipy.sparse as sp

    src, dst = graph.edge_array()
    n = graph.num_vertices
    adj = sp.csr_matrix(
        (np.ones(src.size), (src, dst)), shape=(n, n), dtype=np.float64
    )
    adj.data[:] = 1.0
    return adj
