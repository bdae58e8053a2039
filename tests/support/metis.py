"""Invariant checks of the METIS working graph and its matchings."""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.partition.metis.wgraph import WorkGraph


def validate_work_graph(wg: WorkGraph) -> None:
    """Check the symmetric-CSR invariants of ``wg``."""
    if wg.indptr[0] != 0 or wg.indptr[-1] != wg.indices.size:
        raise PartitionError("WorkGraph indptr inconsistent with indices")
    if wg.eweights.size != wg.indices.size:
        raise PartitionError("WorkGraph eweights length mismatch")
    if wg.vweights.size != wg.num_vertices:
        raise PartitionError("WorkGraph vweights length mismatch")
    if wg.indices.size:
        src = np.repeat(
            np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr)
        )
        if np.any(src == wg.indices):
            raise PartitionError("WorkGraph must not contain self loops")
        # Symmetry: the multiset of (u, v, w) must equal (v, u, w).
        fwd = np.lexsort((wg.indices, src))
        rev = np.lexsort((src, wg.indices))
        if not (
            np.array_equal(src[fwd], wg.indices[rev])
            and np.array_equal(wg.indices[fwd], src[rev])
            and np.array_equal(wg.eweights[fwd], wg.eweights[rev])
        ):
            raise PartitionError("WorkGraph adjacency is not symmetric")


def matching_is_valid(match: np.ndarray) -> bool:
    """Check the involution property of a matching array."""
    idx = np.arange(match.size)
    return bool(np.array_equal(match[match], idx))
