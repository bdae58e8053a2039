"""Hash and random partitioners — the cheap baselines.

Hash partitioning is what distributed graph systems default to when no
offline partitioner is run; it ignores structure, so its cross-edge count
is near the theoretical maximum ``(1 - 1/k)`` fraction.  Fig. 6's blue line
is NDP offload over exactly this scheme.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionAssignment, Partitioner
from repro.utils.rng import SeedLike, ensure_rng

# Multiplicative hashing constant (Knuth); spreads consecutive ids.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


class HashPartitioner(Partitioner):
    """Deterministic multiplicative-hash vertex partitioning."""

    name = "hash"
    closed_form = True

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        ids = np.arange(graph.num_vertices, dtype=np.uint64)
        with np.errstate(over="ignore"):
            hashed = (ids + np.uint64(1)) * _HASH_MULT
        parts = (hashed >> np.uint64(33)) % np.uint64(num_parts)
        return PartitionAssignment(parts.astype(np.int64), num_parts)


class RandomPartitioner(Partitioner):
    """Uniform random assignment with near-perfect vertex balance.

    Vertices are dealt round-robin over a random permutation, so part sizes
    differ by at most one while placement is still structure-oblivious.
    """

    name = "random"
    closed_form = True

    def partition(
        self, graph: CSRGraph, num_parts: int, *, seed: SeedLike = None
    ) -> PartitionAssignment:
        self._check_args(graph, num_parts)
        rng = ensure_rng(seed)
        n = graph.num_vertices
        parts = np.empty(n, dtype=np.int64)
        perm = rng.permutation(n)
        parts[perm] = np.arange(n, dtype=np.int64) % num_parts
        return PartitionAssignment(parts, num_parts)
