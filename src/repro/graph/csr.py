"""Compressed Sparse Row (CSR) graph representation.

The paper's analysis (Section IV) is built on the CSR model: a vertex array
(``indptr``) that is small and frequently accessed, and an edge array
(``indices``) that can be orders of magnitude larger and is read-only during
an analytics run.  This split is exactly what the disaggregated deployments
exploit — vertex data stays in host memory, edge data lives in the remote
memory pool — so the library keeps the two arrays explicit.

Arrays are NumPy-backed and treated as immutable after construction; all
bulk operations are vectorized (no per-edge Python loops on hot paths).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

#: Wire size of one edge record in the paper's accounting (Section IV.A).
EDGE_RECORD_BYTES = 8

#: Dtype of ``indptr`` (offsets can exceed 2**32 for paper-scale edge
#: counts) and of every vertex-id array handed across module boundaries.
_INDEX_DTYPE = np.int64

#: Narrow edge-index dtype used whenever every vertex id fits: halves the
#: footprint and gather bandwidth of the dominant ``indices`` array.
_NARROW_DTYPE = np.uint32

#: Largest vertex count whose one-key edge sort key ``src * n + dst`` (at
#: most ``n**2 - 1``) fits in int64; larger graphs sort on two keys.
_MAX_KEY_VERTICES = 3_037_000_499

_uid_counter = itertools.count()


def index_dtype_for(num_vertices: int) -> np.dtype:
    """Smallest supported index dtype that can hold ids ``< num_vertices``."""
    if num_vertices < 2**32:
        return np.dtype(_NARROW_DTYPE)
    return np.dtype(_INDEX_DTYPE)


def _key_sort(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    weights: Optional[np.ndarray],
    dedup: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort edges by ``(src, dst)`` through the one int64 key ``src * n + dst``.

    A plain in-place sort when unweighted; a stable argsort when weights
    ride along, so that ``dedup`` keeps each pair's first weight exactly as
    the two-key :func:`_lexsort` does.
    """
    if src.size == 0:
        return src, dst, weights
    key = src * np.int64(n) + dst
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    if dedup:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        if weights is not None:
            weights = weights[keep]
    src = key // n
    return src, key - src * n, weights


def _lexsort(
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    dedup: bool,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Two-key :func:`_key_sort`, kept for ``n`` whose one key would overflow."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = weights[order]
    if dedup and src.size:
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    return src, dst, weights


class CSRGraph:
    """A directed graph in CSR form with optional edge weights.

    Parameters
    ----------
    indptr:
        ``int64[n + 1]`` monotone array; out-edges of vertex ``u`` occupy
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``uint32[m]`` or ``int64[m]`` destination vertex ids (see
        ``index_dtype``).
    weights:
        optional ``float64[m]`` edge weights (used by SSSP).
    validate:
        when true (default) the invariants are checked up front.
    index_dtype:
        dtype of the stored ``indices`` array.  Defaults to the narrowest
        dtype that holds every vertex id (``uint32`` below 2**32 vertices),
        which halves edge-array bandwidth at paper scale; pass
        ``np.int64`` explicitly to force wide indices.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "uid",
        "_reverse_cache",
        "_symmetrized_cache",
        "_digest",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
        index_dtype: Optional[np.dtype] = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        if index_dtype is None:
            index_dtype = index_dtype_for(max(self.indptr.size - 1, 0))
        indices = np.asarray(indices)
        if indices.size and indices.dtype != np.dtype(index_dtype):
            # Guard the narrowing cast: a negative or overflowing id would
            # silently wrap into a valid-looking uint32.
            lo = indices.min()
            hi = indices.max()
            if lo < 0 or hi > np.iinfo(index_dtype).max:
                raise GraphError(
                    f"vertex ids [{lo}, {hi}] do not fit index dtype "
                    f"{np.dtype(index_dtype).name}"
                )
        self.indices = np.ascontiguousarray(indices, dtype=index_dtype)
        self.weights = (
            None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        )
        #: Monotonically issued token; unlike ``id()`` it is never reused
        #: after garbage collection, so caches may key on it safely.
        self.uid = next(_uid_counter)
        self._reverse_cache: Optional["CSRGraph"] = None
        self._symmetrized_cache: Optional["CSRGraph"] = None
        self._digest: Optional[str] = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: Optional[int] = None,
        weights: Optional[np.ndarray] = None,
        *,
        dedup: bool = False,
        sort_neighbors: bool = True,
    ) -> "CSRGraph":
        """Build a graph from parallel ``src``/``dst`` edge arrays.

        Parameters
        ----------
        num_vertices:
            explicit vertex count; inferred as ``max(src, dst) + 1`` if omitted.
        dedup:
            drop duplicate ``(src, dst)`` pairs, keeping the first weight.
        sort_neighbors:
            sort each adjacency list by destination id (canonical form).
        """
        src = np.asarray(src, dtype=_INDEX_DTYPE).ravel()
        dst = np.asarray(dst, dtype=_INDEX_DTYPE).ravel()
        if src.shape != dst.shape:
            raise GraphError(
                f"src and dst must have equal length, got {src.size} and {dst.size}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.shape != src.shape:
                raise GraphError(
                    f"weights length {weights.size} != edge count {src.size}"
                )
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphError("vertex ids must be non-negative")
        inferred = int(max(src.max(), dst.max()) + 1) if src.size else 0
        n = inferred if num_vertices is None else int(num_vertices)
        if n < inferred:
            raise GraphError(
                f"num_vertices={n} is smaller than max vertex id {inferred - 1}"
            )

        if sort_neighbors or dedup:
            if n <= _MAX_KEY_VERTICES:
                src, dst, weights = _key_sort(src, dst, n, weights, dedup)
            else:
                src, dst, weights = _lexsort(src, dst, weights, dedup)
        else:
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            if weights is not None:
                weights = weights[order]

        counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # Every id is < n, so the narrowing cast needs no range check.
        return cls(
            indptr, dst.astype(index_dtype_for(n), copy=False), weights, validate=False
        )

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "CSRGraph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        return cls(
            np.zeros(num_vertices + 1, dtype=_INDEX_DTYPE),
            np.empty(0, dtype=_INDEX_DTYPE),
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return int(self.indices.size)

    @property
    def has_weights(self) -> bool:
        """Whether the graph carries per-edge weights."""
        return self.weights is not None

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the stored edge-index array."""
        return self.indices.dtype

    @property
    def digest(self) -> str:
        """Content digest (structure + weights + index dtype), cached.

        The index dtype is part of the digest: cached artifacts derived
        from a graph (partitions, mirror tables) are keyed by this value,
        and a uint32 and an int64 rendering of the same topology must not
        collide into one cache slot.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(np.int64(self.num_vertices).tobytes())
            h.update(self.index_dtype.str.encode())
            h.update(np.ascontiguousarray(self.indptr).tobytes())
            h.update(np.ascontiguousarray(self.indices).tobytes())
            if self.weights is not None:
                h.update(np.ascontiguousarray(self.weights).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    @property
    def out_degrees(self) -> np.ndarray:
        """``int64[n]`` out-degree of every vertex (a fresh array)."""
        return np.diff(self.indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        """``int64[n]`` in-degree of every vertex."""
        return np.bincount(self.indices, minlength=self.num_vertices).astype(
            _INDEX_DTYPE
        )

    def out_degree(self, u: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Read-only view of ``u``'s out-neighbor ids."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_weights_of(self, u: int) -> Optional[np.ndarray]:
        """Weights of ``u``'s out-edges, or ``None`` for unweighted graphs."""
        if self.weights is None:
            return None
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` COO arrays (``src`` is expanded from indptr)."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=_INDEX_DTYPE), self.out_degrees
        )
        return src, self.indices.copy()

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(src, dst)`` pairs.  Convenience only; not a hot path."""
        src, dst = self.edge_array()
        for u, v in zip(src.tolist(), dst.tolist()):
            yield u, v

    def memory_footprint_bytes(self) -> int:
        """Bytes held by the CSR arrays (what a memory pool must store)."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)

    def edge_list_bytes(self) -> int:
        """Wire size of the full edge list under the paper's 8 B/edge model."""
        return self.num_edges * EDGE_RECORD_BYTES

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def reverse(self) -> "CSRGraph":
        """Return the transpose graph (edges flipped); result is cached."""
        if self._reverse_cache is None:
            src, dst = self.edge_array()
            self._reverse_cache = CSRGraph.from_edges(
                dst, src, self.num_vertices, self.weights, sort_neighbors=True
            )
        return self._reverse_cache

    def symmetrized(self, *, dedup: bool = True) -> "CSRGraph":
        """Return the undirected closure: for each edge (u, v) also add (v, u).

        The default (deduplicated) closure is cached: every partitioner in
        the setup path symmetrizes first, so partitioning the same graph
        repeatedly — a Fig. 6/7 sweep over partitioner or part count — pays
        the O(m log m) construction once.
        """
        if dedup and self._symmetrized_cache is not None:
            return self._symmetrized_cache
        src, dst = self.edge_array()
        s = np.concatenate([src, dst])
        d = np.concatenate([dst, src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        result = CSRGraph.from_edges(s, d, self.num_vertices, w, dedup=dedup)
        if dedup:
            self._symmetrized_cache = result
        return result

    def without_self_loops(self) -> "CSRGraph":
        """Return a copy with self loops removed."""
        src, dst = self.edge_array()
        keep = src != dst
        w = self.weights[keep] if self.weights is not None else None
        return CSRGraph.from_edges(src[keep], dst[keep], self.num_vertices, w)

    def subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original id
        of new vertex ``i``.  Vertices are relabeled ``0..k-1`` in the order
        given (after dedup + sort).
        """
        vertices = np.unique(np.asarray(vertices, dtype=_INDEX_DTYPE))
        if vertices.size and (
            vertices[0] < 0 or vertices[-1] >= self.num_vertices
        ):
            raise GraphError("subgraph vertices out of range")
        remap = np.full(self.num_vertices, -1, dtype=_INDEX_DTYPE)
        remap[vertices] = np.arange(vertices.size, dtype=_INDEX_DTYPE)
        src, dst = self.edge_array()
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        w = self.weights[keep] if self.weights is not None else None
        sub = CSRGraph.from_edges(
            remap[src[keep]], remap[dst[keep]], vertices.size, w
        )
        return sub, vertices

    def with_uniform_weights(self, value: float = 1.0) -> "CSRGraph":
        """Return a weighted copy with every edge weight set to ``value``."""
        return CSRGraph(
            self.indptr,
            self.indices,
            np.full(self.num_edges, float(value)),
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Structural checks
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length n + 1 >= 1")
        if self.indptr[0] != 0:
            raise GraphError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} != len(indices)={self.indices.size}"
            )
        if self.indices.size:
            lo, hi = self.indices.min(), self.indices.max()
            if lo < 0 or hi >= self.num_vertices:
                raise GraphError(
                    f"edge destination out of range [0, {self.num_vertices}): "
                    f"saw [{lo}, {hi}]"
                )
        if self.weights is not None and self.weights.size != self.indices.size:
            raise GraphError(
                f"weights length {self.weights.size} != edge count {self.indices.size}"
            )

    def validate(self) -> None:
        """Re-check structural invariants; raises :class:`GraphError` on failure."""
        self._validate()

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        ):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None:
            return bool(np.allclose(self.weights, other.weights))
        return True

    def __hash__(self) -> int:  # pragma: no cover - identity hash, CSR is mutable-array backed
        return id(self)

    def __repr__(self) -> str:
        w = ", weighted" if self.has_weights else ""
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges}{w})"
