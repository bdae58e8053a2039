"""Linear Deterministic Greedy (LDG) streaming partitioner.

The standard one-pass partitioner for graphs too large to hold in memory
(Stanton & Kliot): vertices arrive in a stream and each is placed on the
part holding most of its already-placed neighbors, discounted by a
fullness penalty ``1 - size/capacity``.  Exactly the regime the paper's
trillion-edge deployments live in — partitioning must happen online while
loading the pool.

The implementation is batched: the stream is cut into blocks, each block's
neighbor lists are gathered with one CSR slice and its placed-neighbor
counts are scored with a single ``np.bincount`` over ``(position, part)``
keys against the partition state frozen at block start.  The only
sequential dependency *inside* a block is through block-internal edges, so
the per-vertex loop shrinks to an argmax plus (rarely) a tiny correction
bincount — while remaining bit-identical to the scalar reference
(:func:`repro.partition.reference.ldg_reference`) for every seed.

An opt-in ``chunked`` mode drops the intra-block corrections entirely and
places each block against the frozen state in one shot.  It is no longer
bit-identical — block-internal affinity is ignored — but the cut quality is
near-equivalent on the evaluation graphs (tested) and the stream becomes
embarrassingly vectorizable, which is what very large graphs want.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import gather_neighbor_slices
from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    fill_lightest,
    symmetrized_structure,
)
from repro.utils.rng import SeedLike, ensure_rng


class LDGStreamingPartitioner(Partitioner):
    """One-pass LDG vertex placement over the symmetrized adjacency.

    Parameters
    ----------
    slack:
        capacity headroom: each part holds at most ``(1 + slack) * n/k``.
    order:
        stream order — ``"random"`` (default), ``"natural"`` (by id; what a
        loader doing a sequential scan sees), or ``"bfs"`` (crawl order).
    chunked:
        opt-in fully-vectorized mode: score each stream block against the
        partition state frozen at block start instead of maintaining exact
        sequential semantics.  Faster on large graphs, near-equivalent cut
        quality, **not** bit-identical to the default mode.
    batch_size:
        stream block length; ``None`` picks a size proportional to the
        vertex count (small enough that intra-block edges stay rare).
    """

    name = "ldg"

    def __init__(
        self,
        *,
        slack: float = 0.1,
        order: str = "random",
        chunked: bool = False,
        batch_size: int | None = None,
    ) -> None:
        if slack < 0:
            raise PartitionError(f"slack must be >= 0, got {slack}")
        if order not in ("random", "natural", "bfs"):
            raise PartitionError(
                f"order must be random|natural|bfs, got {order!r}"
            )
        if batch_size is not None and batch_size < 1:
            raise PartitionError(f"batch_size must be >= 1, got {batch_size}")
        self.slack = float(slack)
        self.order = order
        self.chunked = bool(chunked)
        self.batch_size = batch_size

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        rng = ensure_rng(seed)
        n = graph.num_vertices
        if n == 0:
            return PartitionAssignment(np.empty(0, dtype=np.int64), num_parts)
        und = symmetrized_structure(graph)
        capacity = (1.0 + self.slack) * n / num_parts
        order = self._stream(und, rng)
        batch = self._resolve_batch(n)
        if self.chunked:
            parts = _ldg_chunked(und, order, num_parts, capacity, batch)
        else:
            parts = _ldg_exact(und, order, num_parts, capacity, batch)
        return PartitionAssignment(parts, num_parts)

    def _resolve_batch(self, n: int) -> int:
        if self.batch_size is not None:
            return self.batch_size
        if self.chunked:
            # Wide enough to amortize the per-block passes, narrow enough
            # that most vertices see a meaningfully-placed frozen state —
            # at n/64 the measured cut stays within a few percent of the
            # exact mode on the evaluation graphs.
            return max(64, min(1 << 16, n // 64))
        # Exact mode corrects for intra-block edges; keep blocks a small
        # fraction of the stream so corrections stay rare.
        return max(64, min(4096, n // 16))

    def _stream(self, graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
        n = graph.num_vertices
        if self.order == "natural":
            return np.arange(n, dtype=np.int64)
        if self.order == "random":
            return rng.permutation(n)
        # BFS order from a random seed, appending unreached vertices.
        from repro.graph.traversal import bfs_levels

        start = int(rng.integers(0, n))
        levels = bfs_levels(graph, start)
        reached = np.argsort(levels + (levels < 0) * (levels.max() + 2))
        return reached.astype(np.int64)


def _block_counts(
    und: CSRGraph,
    verts: np.ndarray,
    parts: np.ndarray,
    num_parts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Placed-neighbor part counts for one stream block, one bincount.

    Returns ``(counts, nbrs, seg)``: the ``(B, k)`` count matrix against the
    current ``parts`` state, plus the gathered neighbor ids and their block
    positions for callers that need intra-block corrections.
    """
    B = verts.size
    nbrs = gather_neighbor_slices(und, verts)
    lens = und.indptr[verts + 1] - und.indptr[verts]
    seg = np.repeat(np.arange(B, dtype=np.int64), lens)
    pv = parts[nbrs]
    placed = pv >= 0
    counts = np.bincount(
        seg[placed] * np.int64(num_parts) + pv[placed],
        minlength=B * num_parts,
    ).reshape(B, num_parts)
    return counts, nbrs, seg


def _ldg_exact(
    und: CSRGraph,
    order: np.ndarray,
    num_parts: int,
    capacity: float,
    batch: int,
) -> np.ndarray:
    """Sequential LDG, batched — bit-identical to the scalar reference.

    Per block: one gather + one bincount give every vertex's placed-neighbor
    counts against the state frozen at block start.  Placements made *inside*
    the block are pushed forward into the count matrix as they happen (only
    along block-internal edges, which are rare when the block is a small
    fraction of the stream), so every row is exact by the time its vertex is
    scored.  Vertices with no placed neighbors at all score zero and fall to
    the lightest part; maximal runs of them are placed in one water-filling
    pass (:func:`~repro.partition.base.fill_lightest`), which on sparse
    graphs collapses most of the stream into vectorized fills.
    """
    n = order.size
    parts = np.full(n, -1, dtype=np.int64)
    block_pos = np.full(n, -1, dtype=np.int64)
    krange = range(num_parts)
    # Per-vertex state lives in plain Python containers: the inner loop is
    # dominated by interpreter-level scalar work, where list indexing and
    # float arithmetic run ~5x faster than numpy 0-d operations — and
    # Python floats are the same IEEE doubles, so every intermediate value
    # is bit-identical to the reference's elementwise numpy arithmetic.
    sizes = [0] * num_parts
    penalty = [max(1.0 - s / capacity, 0.0) for s in sizes]

    for b0 in range(0, n, batch):
        verts = order[b0 : b0 + batch]
        B = verts.size
        block_pos[verts] = np.arange(B, dtype=np.int64)
        base, nbrs, seg = _block_counts(und, verts, parts, num_parts)
        # Block-internal edges, owner position -> later neighbor position:
        # the placements the frozen counts miss.  When position i is placed
        # on part c, every later in-block neighbor j gets rows[j][c] += 1.
        npos = block_pos[nbrs]
        fsel = npos > seg
        fwd_np = npos[fsel]
        fown_np = seg[fsel]
        # fwd entries are grouped by owner position (seg is sorted), so
        # fbounds[i]:fbounds[i+1] are position i's forward targets.
        fptr = np.zeros(B + 1, dtype=np.int64)
        np.cumsum(np.bincount(fown_np, minlength=B), out=fptr[1:])
        fbounds = fptr.tolist()

        # Positions that can possibly score > 0: frozen counts, or the
        # target of a forward push (its earlier neighbor always places).
        maybe_scored = base.any(axis=1)
        if fwd_np.size:
            maybe_scored[fwd_np] = True
        fwd = fwd_np.tolist()
        fown = fown_np.tolist()

        rows = base.tolist()
        chosen = [-1] * B
        prev = 0
        for i in np.flatnonzero(maybe_scored).tolist():
            if i > prev:
                # Unscored run: each falls to the then-lightest part — one
                # water-filling pass for long runs, a scalar sweep for
                # short ones.  Run members can still own forward pushes
                # (their targets are always scored, i.e. at positions
                # >= i), so push their placements too.
                gap = i - prev
                if gap < 16:
                    for pos in range(prev, i):
                        c = sizes.index(min(sizes))
                        chosen[pos] = c
                        sz = sizes[c] + 1
                        sizes[c] = sz
                        penalty[c] = max(1.0 - sz / capacity, 0.0)
                else:
                    sizes_np = np.asarray(sizes, dtype=np.int64)
                    chosen[prev:i] = fill_lightest(sizes_np, gap).tolist()
                    sizes = sizes_np.tolist()
                    penalty = [max(1.0 - s / capacity, 0.0) for s in sizes]
                for e in range(fbounds[prev], fbounds[i]):
                    rows[fwd[e]][chosen[fown[e]]] += 1
            row = rows[i]
            best = 0.0
            c = -1
            for p in krange:
                cnt = row[p]
                if cnt:
                    s = cnt * penalty[p]
                    if s > best:
                        best = s
                        c = p
            if c < 0:
                # Every counted part is already full: lightest part keeps
                # the stream balanced.
                c = sizes.index(min(sizes))
            elif sizes[c] >= capacity:
                c = sizes.index(min(sizes))
            chosen[i] = c
            sz = sizes[c] + 1
            sizes[c] = sz
            penalty[c] = max(1.0 - sz / capacity, 0.0)
            for e in range(fbounds[i], fbounds[i + 1]):
                rows[fwd[e]][c] += 1
            prev = i + 1
        if prev < B:
            # Tail run: by construction no member owns a forward push (its
            # target would be a later scored position), so placement alone
            # suffices.
            sizes_np = np.asarray(sizes, dtype=np.int64)
            chosen[prev:B] = fill_lightest(sizes_np, B - prev).tolist()
            sizes = sizes_np.tolist()
            penalty = [max(1.0 - s / capacity, 0.0) for s in sizes]
        parts[verts] = chosen
        block_pos[verts] = -1
    return parts


def _ldg_chunked(
    und: CSRGraph,
    order: np.ndarray,
    num_parts: int,
    capacity: float,
    batch: int,
) -> np.ndarray:
    """Frozen-state LDG: place each block in one vectorized pass.

    Every vertex in a block is scored against the sizes and placements as
    of block start.  Parts accept their scored vertices in stream order up
    to capacity; the spill-over and the unscored vertices (no placed
    neighbors) go to the lightest parts via the same water-filling rule the
    scalar fallback uses.
    """
    n = order.size
    parts = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)

    for b0 in range(0, n, batch):
        verts = order[b0 : b0 + batch]
        B = verts.size
        counts, _, _ = _block_counts(und, verts, parts, num_parts)
        penalty = np.maximum(1.0 - sizes / capacity, 0.0)
        scores = counts * penalty
        best = scores.argmax(axis=1)
        scored = scores[np.arange(B), best] > 0.0

        # Accept scored vertices per part in stream order, up to capacity.
        room = np.maximum(np.ceil(capacity - sizes), 0).astype(np.int64)
        choice = np.where(scored, best, -1)
        stream_rank = np.arange(B, dtype=np.int64)
        grouped = np.lexsort((stream_rank, choice))
        grouped = grouped[choice[grouped] >= 0]
        gparts = choice[grouped]
        group_start = np.zeros(num_parts, dtype=np.int64)
        per_part = np.bincount(gparts, minlength=num_parts)
        np.cumsum(per_part[:-1], out=group_start[1:])
        rank_in_part = np.arange(gparts.size, dtype=np.int64) - group_start[gparts]
        accepted = grouped[rank_in_part < room[gparts]]
        block_parts = np.full(B, -1, dtype=np.int64)
        block_parts[accepted] = choice[accepted]
        sizes += np.bincount(choice[accepted], minlength=num_parts)

        # Spill-over + unscored vertices balance onto the lightest parts.
        balance = np.flatnonzero(block_parts < 0)
        if balance.size:
            block_parts[balance] = fill_lightest(sizes, balance.size)
        parts[verts] = block_parts
    return parts
