"""Sort-based structural-profiling oracle.

The engine's hot path computes the distinct-destination set and the
distinct ``(dst, part)`` pairs in O(|E| + |V|) with flag arrays and
``bincount`` (:func:`repro.arch.engine.frontier_structure`).  This module
keeps the original O(|E| log |E|) ``np.unique`` formulation as a
*differential oracle*: slower, independent of the scratch-buffer machinery,
and with an obviously correct derivation.  Tests assert the two paths
produce bit-identical :class:`~repro.arch.engine.FrontierStructure` /
:class:`~repro.arch.engine.IterationProfile` contents for every kernel.

The oracle deliberately shares **no** code with the engine's gather: it
has no all-vertices shortcut, and it builds the per-edge arrays by
concatenating each frontier vertex's CSR slice in turn, so comparing the
two also checks the engine's position pass and its all-vertices fast path
against an independent implementation.
"""

from __future__ import annotations

import numpy as np

from repro.arch.engine import FrontierStructure
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment


def frontier_structure_reference(
    graph: CSRGraph,
    frontier: np.ndarray,
    assignment: PartitionAssignment,
) -> FrontierStructure:
    """Sort-based reference for :func:`repro.arch.engine.frontier_structure`.

    Output contract (shared with the fast path): ``touched`` sorted
    ascending, pairs sorted lexicographically by ``(dst, part)``, and every
    derived array in int64.
    """
    parts = assignment.parts
    num_parts = assignment.num_parts

    bounds = graph.indptr.tolist()
    slices = [(v, bounds[v], bounds[v + 1]) for v in frontier.tolist()]
    dst = np.concatenate(
        [graph.indices[lo:hi] for _, lo, hi in slices]
        + [np.empty(0, dtype=graph.indices.dtype)]
    )
    src = np.concatenate(
        [np.full(hi - lo, v, dtype=np.int64) for v, lo, hi in slices]
        + [np.empty(0, dtype=np.int64)]
    )
    weights = (
        np.concatenate([graph.weights[lo:hi] for _, lo, hi in slices] + [np.empty(0)])
        if graph.weights is not None
        else np.ones(dst.size)
    )
    src_parts = parts[src]
    edges_traversed = int(dst.size)

    frontier_per_part = np.bincount(
        parts[frontier], minlength=num_parts
    ).astype(np.int64) if frontier.size else np.zeros(num_parts, dtype=np.int64)
    edges_per_part = np.bincount(
        src_parts, minlength=num_parts
    ).astype(np.int64) if edges_traversed else np.zeros(num_parts, dtype=np.int64)

    if edges_traversed:
        touched = np.unique(dst).astype(np.int64, copy=False)
        keys = dst.astype(np.int64) * np.int64(num_parts) + src_parts
        uniq = np.unique(keys)
        pair_dst = uniq // num_parts
        pair_part = uniq % num_parts
        partials_per_part = np.bincount(
            pair_part, minlength=num_parts
        ).astype(np.int64)
        # pair_dst is sorted, so the per-destination fan-in is a run-length
        # count in one pass — no second sort over an already-sorted array.
        boundaries = np.flatnonzero(
            np.r_[True, pair_dst[1:] != pair_dst[:-1]]
        )
        updates_per_destination = np.diff(
            np.append(boundaries, pair_dst.size)
        ).astype(np.int64, copy=False)
    else:
        touched = np.empty(0, dtype=np.int64)
        pair_dst = np.empty(0, dtype=np.int64)
        pair_part = np.empty(0, dtype=np.int64)
        partials_per_part = np.zeros(num_parts, dtype=np.int64)
        updates_per_destination = np.empty(0, dtype=np.int64)

    return FrontierStructure(
        frontier=frontier.copy(),
        src=src,
        dst=dst,
        weights=weights,
        touched=touched,
        edges_traversed=edges_traversed,
        frontier_per_part=frontier_per_part,
        edges_per_part=edges_per_part,
        pair_dst=pair_dst,
        pair_part=pair_part,
        partials_per_part=partials_per_part,
        updates_per_destination=updates_per_destination,
    )
