"""Partitioner interface, assignment container, and quality metrics.

A partition assigns every vertex to exactly one part (the paper's 1-D
model: a vertex's out-edge list lives on the memory node that owns the
vertex).  Quality is judged on the metrics the paper's Fig. 6 turns on:
edge cut and communication volume drive partial-update traffic, balance
drives memory-pool utilization.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import _gather_positions
from repro.utils.rng import SeedLike

_uid_counter = itertools.count()


class PartitionAssignment:
    """An immutable vertex → part mapping.

    Parameters
    ----------
    parts:
        ``int[n]`` part id per vertex, each in ``[0, num_parts)``.
    num_parts:
        total part count (parts may be empty).
    """

    __slots__ = (
        "parts", "num_parts", "uid", "_edge_parts_graph", "_edge_parts", "_full_pairs"
    )

    def __init__(self, parts: np.ndarray, num_parts: int) -> None:
        # A private read-only copy: the per-edge caches below trust that
        # the map never changes, so a caller's array must not alias it.
        parts = np.array(parts, dtype=np.int64)
        if parts.ndim != 1:
            raise PartitionError("parts must be a 1-D array")
        if num_parts < 1:
            raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
        if parts.size and (parts.min() < 0 or parts.max() >= num_parts):
            raise PartitionError(
                f"part ids must lie in [0, {num_parts}), saw "
                f"[{parts.min()}, {parts.max()}]"
            )
        parts.setflags(write=False)
        self.parts = parts
        self.num_parts = int(num_parts)
        #: Monotonically issued token (never reused, unlike ``id()``);
        #: structural caches key on it.
        self.uid = next(_uid_counter)
        self._edge_parts_graph: Optional[CSRGraph] = None
        self._edge_parts: Optional[np.ndarray] = None
        self._full_pairs: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def num_vertices(self) -> int:
        return int(self.parts.size)

    def part_of(self, vertex: int) -> int:
        """Owning part of one vertex."""
        return int(self.parts[vertex])

    def vertices_of(self, part: int) -> np.ndarray:
        """Ids of vertices owned by ``part``."""
        if not 0 <= part < self.num_parts:
            raise PartitionError(f"part {part} out of range [0, {self.num_parts})")
        return np.nonzero(self.parts == part)[0].astype(np.int64)

    def sizes(self) -> np.ndarray:
        """Vertex count per part."""
        return np.bincount(self.parts, minlength=self.num_parts).astype(np.int64)

    def edge_source_parts(self, graph: CSRGraph) -> np.ndarray:
        """``int64[m]`` owning part of each edge's *source*, CSR-aligned.

        ``result[e] == parts[src(e)]`` for the edge stored at
        ``graph.indices[e]``.  Computed once per (assignment, graph) pair
        and cached read-only — the engine's structural profiling keys every
        traversed edge by its source part, and rebuilding that |E|-sized
        gather each iteration dominates the full-frontier hot loop.
        """
        self._bind_graph(graph)
        if self._edge_parts is None:
            edge_parts = np.repeat(self.parts, np.diff(graph.indptr))
            edge_parts.setflags(write=False)
            self._edge_parts = edge_parts
        return self._edge_parts

    def full_pairs(self, graph: CSRGraph) -> Tuple[np.ndarray, ...]:
        """:func:`distinct_pairs` over every edge's (destination, source part).

        The all-vertices frontier's structure, the push mirror table and the
        communication volume all derive from this one |E| pass, so it runs
        once per (assignment, graph) pair and is cached read-only beside
        :meth:`edge_source_parts`.
        """
        self._bind_graph(graph)
        if self._full_pairs is None:
            pairs = distinct_pairs(
                graph.indices,
                self.edge_source_parts(graph),
                self.num_parts,
                self.num_vertices,
                ProfileScratch(),
            )
            for arr in pairs:
                arr.setflags(write=False)
            self._full_pairs = pairs
        return self._full_pairs

    def _bind_graph(self, graph: CSRGraph) -> None:
        """Point the per-edge caches at ``graph``, dropping another graph's."""
        self._check_graph(graph)
        if self._edge_parts_graph is not graph:
            self._edge_parts_graph = graph
            self._edge_parts = None
            self._full_pairs = None

    def edge_sizes(self, graph: CSRGraph) -> np.ndarray:
        """Out-edge count stored on each part (edge lists follow their source)."""
        self._check_graph(graph)
        out = np.zeros(self.num_parts, dtype=np.int64)
        np.add.at(out, self.parts, graph.out_degrees)
        return out

    def _check_graph(self, graph: CSRGraph) -> None:
        if graph.num_vertices != self.num_vertices:
            raise PartitionError(
                f"assignment covers {self.num_vertices} vertices but graph has "
                f"{graph.num_vertices}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return self.num_parts == other.num_parts and np.array_equal(
            self.parts, other.parts
        )

    def __repr__(self) -> str:
        return f"PartitionAssignment(n={self.num_vertices}, k={self.num_parts})"


class Partitioner(abc.ABC):
    """Strategy interface: produce a :class:`PartitionAssignment` for a graph."""

    #: short name used by the registry and experiment configs
    name: str = "abstract"
    #: the assignment is an O(n) formula over vertex ids or degrees, so
    #: recomputing it costs less than the graph digest and read a cached
    #: copy needs (:func:`repro.arch.trace.prepare_trace` never caches it)
    closed_form: bool = False

    @abc.abstractmethod
    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        """Partition ``graph`` into ``num_parts`` parts."""

    def _check_args(self, graph: CSRGraph, num_parts: int) -> None:
        if num_parts < 1:
            raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
        if graph.num_vertices == 0 and num_parts > 1:
            raise PartitionError("cannot split an empty graph into multiple parts")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def symmetrized_structure(graph: CSRGraph) -> CSRGraph:
    """The undirected closure of ``graph``, without its edge weights.

    For partitioners that read only ``indptr``/``indices`` of the closure.
    A weighted input (sssp's prepared graph carries uniform weights) would
    otherwise push |E| weights through the closure's stable sort, about
    twice the cost of the structure-only sort.  Unweighted inputs keep the
    cached :meth:`CSRGraph.symmetrized` closure.
    """
    if graph.weights is None:
        return graph.symmetrized()
    structure = CSRGraph(
        graph.indptr, graph.indices, validate=False, index_dtype=graph.index_dtype
    )
    return structure.symmetrized()


# ---------------------------------------------------------------------- #
# Balance helpers
# ---------------------------------------------------------------------- #


def fill_lightest(sizes: np.ndarray, count: int) -> np.ndarray:
    """Part ids for ``count`` sequential lightest-part picks, vectorized.

    Reproduces exactly the scalar loop ``for _ in range(count): p =
    argmin(sizes); sizes[p] += 1`` (ties broken towards the lowest part id)
    without per-pick Python.  The greedy sequence visits picks in increasing
    ``(size-at-pick, part)`` order, and part ``p`` with starting size ``s_p``
    is picked at sizes ``s_p, s_p + 1, ...`` — so the picks are the ``count``
    smallest elements of that implicit multiset.  ``sizes`` is updated in
    place, matching the scalar loop's final state.

    Returns ``int64[count]`` part ids in pick order.
    """
    sizes = np.asarray(sizes)
    k = sizes.size
    if count < 0:
        raise PartitionError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if k == 0:
        raise PartitionError("cannot fill parts of an empty assignment")
    if count < 8:
        # Short fills are cheaper as the scalar loop they replace.
        picked = np.empty(count, dtype=np.int64)
        for i in range(count):
            p = int(np.argmin(sizes))
            picked[i] = p
            sizes[p] += 1
        return picked
    # Largest level T with #{keys < T} <= count, by binary search on the
    # monotone key-count sum(max(0, T - s_p)).
    lo = int(sizes.min())
    hi = lo + count + 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        below = int(np.maximum(mid - sizes, 0).sum())
        if below <= count:
            lo = mid
        else:
            hi = mid
    level = lo
    picks_per_part = np.maximum(level - sizes, 0).astype(np.int64)
    remainder = count - int(picks_per_part.sum())
    if remainder:
        # Ties at key == level go to the lowest-indexed eligible parts.
        eligible = np.flatnonzero(sizes <= level)[:remainder]
        picks_per_part[eligible] += 1
    part_ids = np.repeat(np.arange(k, dtype=np.int64), picks_per_part)
    # Key of part p's j-th pick is s_p + j (its size at that moment): the
    # positions of ragged slices that start at each part's size.
    keys = _gather_positions(sizes, picks_per_part)
    order = np.lexsort((part_ids, keys))
    picked = part_ids[order]
    sizes += picks_per_part
    return picked


# ---------------------------------------------------------------------- #
# Distinct (vertex, part) pairs
# ---------------------------------------------------------------------- #

#: :func:`distinct_pairs` flags pairs in the direct ``n * P`` grid while it
#: holds at most this many bool slots per input pair (half the bytes of the
#: int64 key array the pass builds anyway); sparser inputs rank first.
_DIRECT_GRID_SLOTS_PER_PAIR = 4


class ProfileScratch:
    """Reusable scratch for the O(|E| + |V|) :func:`distinct_pairs` pass.

    ``marks`` hands out an epoch-stamped int64 mark array plus a rank
    array, both sized to the graph: bumping the epoch invalidates every
    stale entry at once, so there is no O(|V|) clearing between calls.
    ``pair_flags`` is a growable bool array kept all-``False`` between
    calls — users set the flags they need and clear exactly those back
    (a targeted O(|pairs|) clear, not O(capacity)).  The engine keeps one
    per run; one-off callers pass a fresh instance.
    """

    __slots__ = ("_mark", "_rank", "_epoch", "_pair_seen")

    def __init__(self) -> None:
        self._mark: Optional[np.ndarray] = None
        self._rank: Optional[np.ndarray] = None
        self._epoch = 0
        self._pair_seen: Optional[np.ndarray] = None

    def marks(self, n: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Return ``(mark, rank, epoch)`` sized for ``n`` vertices."""
        if self._mark is None or self._mark.size < n:
            self._mark = np.zeros(max(n, 1), dtype=np.int64)
            self._rank = np.empty(max(n, 1), dtype=np.int64)
            self._epoch = 0
        self._epoch += 1
        return self._mark, self._rank, self._epoch

    def pair_flags(self, capacity: int) -> np.ndarray:
        """All-``False`` bool scratch with at least ``capacity`` slots."""
        if self._pair_seen is None or self._pair_seen.size < capacity:
            self._pair_seen = np.zeros(max(capacity, 1), dtype=bool)
        return self._pair_seen

    def tracked_nbytes(self) -> int:
        """Bytes currently held by the scratch buffers."""
        total = 0
        for arr in (self._mark, self._rank, self._pair_seen):
            if arr is not None:
                total += arr.nbytes
        return total


def distinct_pairs(
    vertices: np.ndarray,
    vertex_parts: np.ndarray,
    num_parts: int,
    n: int,
    scratch: ProfileScratch,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """O(|E| + |V|) distinct vertices and distinct ``(vertex, part)`` pairs.

    ``vertices`` holds ids ``< n`` and ``vertex_parts`` the part in
    ``[0, num_parts)`` paired with each; on every caller both are
    |E|-sized and CSR-aligned (edge destinations with their source parts,
    for the engine and push mirrors).  Returns ``(touched, pair_vertex,
    pair_part, pairs_per_vertex)``, all int64 and ordered exactly as a
    sort would order them: ``touched`` ascending, pairs lexicographic by
    ``(vertex, part)``.  No |E|-sized array is sorted.

    Each pair sets one flag at ``vertex * P + part`` when that ``n * P``
    grid is small next to the input; flag positions in ascending order are
    the lexicographic pairs.  Otherwise (a sparse frontier over a large
    graph) the touched vertices are first ranked, and the flags live in a
    ``|touched| * P`` grid at ``rank * P + part``: ranks are assigned in
    ascending ``touched`` order, so ascending compressed keys enumerate the
    same sequence.
    """
    grid = n * num_parts
    if grid <= _DIRECT_GRID_SLOTS_PER_PAIR * vertices.size:
        seen = scratch.pair_flags(grid)
        seen[vertices * np.int64(num_parts) + vertex_parts] = True
        pair_idx = np.flatnonzero(seen[:grid])
        # Targeted clear: restore the all-False invariant in O(|pairs|).
        seen[pair_idx] = False
        pair_vertex = pair_idx // num_parts
        pair_part = pair_idx - pair_vertex * num_parts
        counts = np.bincount(pair_vertex, minlength=n)
        touched = np.flatnonzero(counts)
        return touched, pair_vertex, pair_part, counts[touched]
    mark, rank, epoch = scratch.marks(n)
    mark[vertices] = epoch
    touched = np.flatnonzero(mark[:n] == epoch).astype(np.int64, copy=False)
    t = touched.size
    rank[touched] = np.arange(t, dtype=np.int64)
    keys = rank[vertices] * np.int64(num_parts) + vertex_parts
    seen = scratch.pair_flags(t * num_parts)
    seen[keys] = True
    pair_idx = np.flatnonzero(seen[: t * num_parts])
    seen[pair_idx] = False
    pair_rank = pair_idx // num_parts
    pair_vertex = touched[pair_rank]
    pair_part = pair_idx - pair_rank * num_parts
    # Every touched vertex contributes >= 1 pair, so the per-rank counts
    # are exactly the per-vertex pair counts, already in touched order.
    pairs_per_vertex = np.bincount(pair_rank, minlength=t)
    return touched, pair_vertex, pair_part, pairs_per_vertex


# ---------------------------------------------------------------------- #
# Quality metrics
# ---------------------------------------------------------------------- #


def edge_cut(graph: CSRGraph, assignment: PartitionAssignment) -> int:
    """Number of directed edges whose endpoints lie in different parts."""
    assignment._check_graph(graph)
    src, dst = graph.edge_array()
    return int(np.count_nonzero(assignment.parts[src] != assignment.parts[dst]))


def communication_volume(graph: CSRGraph, assignment: PartitionAssignment) -> int:
    """Total communication volume: Σ_v #distinct remote parts sending to v.

    This counts, for every vertex, how many parts other than its owner hold
    at least one in-edge of it — exactly the per-iteration partial-update
    message count when all vertices are active (PageRank steady state).
    """
    _, pair_vertex, pair_part, _ = assignment.full_pairs(graph)
    return int(np.count_nonzero(assignment.parts[pair_vertex] != pair_part))


def balance_ratio(assignment: PartitionAssignment) -> float:
    """Vertex balance: max part size over ideal size (1.0 = perfect)."""
    sizes = assignment.sizes()
    if assignment.num_vertices == 0:
        return 1.0
    ideal = assignment.num_vertices / assignment.num_parts
    return float(sizes.max() / ideal)


def edge_balance_ratio(graph: CSRGraph, assignment: PartitionAssignment) -> float:
    """Edge balance: max per-part stored edges over ideal (1.0 = perfect)."""
    if graph.num_edges == 0:
        return 1.0
    sizes = assignment.edge_sizes(graph)
    ideal = graph.num_edges / assignment.num_parts
    return float(sizes.max() / ideal)


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of all quality metrics for one assignment."""

    num_parts: int
    edge_cut: int
    cut_fraction: float
    communication_volume: int
    balance: float
    edge_balance: float
    replication: float


def partition_quality(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    mirror_table: Optional[object] = None,
) -> PartitionQuality:
    """Compute the full :class:`PartitionQuality` bundle."""
    from repro.partition.mirrors import build_mirror_table, replication_factor

    cut = edge_cut(graph, assignment)
    table = mirror_table if mirror_table is not None else build_mirror_table(graph, assignment)
    return PartitionQuality(
        num_parts=assignment.num_parts,
        edge_cut=cut,
        cut_fraction=cut / graph.num_edges if graph.num_edges else 0.0,
        communication_volume=communication_volume(graph, assignment),
        balance=balance_ratio(assignment),
        edge_balance=edge_balance_ratio(graph, assignment),
        replication=replication_factor(table),
    )
