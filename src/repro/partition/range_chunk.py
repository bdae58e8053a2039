"""Contiguous-range partitioners.

Range partitioning keeps vertex-id locality (good for web graphs whose
crawl order clusters links) and is the natural layout for CSR shards: each
memory node stores one contiguous slice of ``indptr``/``indices``.  The
edge-balanced variant equalizes *stored edges* rather than vertices, which
matters for skewed graphs where a few hubs carry most of the edge list.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment, Partitioner
from repro.utils.rng import SeedLike


class RangePartitioner(Partitioner):
    """Split vertex ids into ``num_parts`` contiguous, equal-count ranges."""

    name = "range"
    closed_form = True

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        n = graph.num_vertices
        # Equal split with remainder spread over the first parts.
        parts = np.repeat(
            np.arange(num_parts, dtype=np.int64),
            np.diff(np.linspace(0, n, num_parts + 1).astype(np.int64)),
        )
        return PartitionAssignment(parts, num_parts)


class EdgeBalancedRangePartitioner(Partitioner):
    """Contiguous ranges whose *edge* counts are approximately equal.

    Cut points are chosen on the cumulative out-degree curve (``indptr``),
    the same chunking a CSR edge-list shard uses on disk.
    """

    name = "range-edges"
    closed_form = True

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        n = graph.num_vertices
        if n == 0:
            return PartitionAssignment(np.empty(0, dtype=np.int64), num_parts)
        m = graph.num_edges
        # Target cumulative edge counts at each boundary.
        targets = np.linspace(0, m, num_parts + 1)[1:-1]
        # indptr is sorted; searchsorted finds the vertex where each target falls.
        cuts = np.searchsorted(graph.indptr[1:], targets, side="left")
        bounds = np.concatenate([[0], np.clip(cuts, 0, n), [n]])
        bounds = np.maximum.accumulate(bounds)
        parts = np.repeat(np.arange(num_parts, dtype=np.int64), np.diff(bounds))
        return PartitionAssignment(parts, num_parts)
