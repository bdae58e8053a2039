"""The flag pass behind every distinct (vertex, part) count, against sorts.

Mirror tables, communication volume, the disaggregated host shuffle and
the engine's profile share one O(|E| + |V|) pass,
:func:`repro.partition.base.distinct_pairs`.  The oracles here are the
``edge_array()`` + ``np.unique`` formulations that pass replaced, kept in
the test so they stay independent of ``src/``.
"""

import types

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.trace import record_trace
from repro.graph.csr import CSRGraph
from repro.kernels.bfs import BFS
from repro.kernels.pagerank import PageRank
from repro.partition.base import (
    PartitionAssignment,
    ProfileScratch,
    communication_volume,
    distinct_pairs,
)
from repro.partition.mirrors import build_mirror_table
from repro.runtime.config import SystemConfig

PART_COUNTS = [1, 2, 7, 80]
SEEDS = range(6)


def random_graph(seed):
    """A random multigraph with self-loops and vertices without in-edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(0, 4 * n))
    src = rng.integers(0, n, size=m)
    # The top quarter of the ids receives no edge except its self-loops.
    dst = rng.integers(0, max(n - n // 4, 1), size=m)
    loops = rng.integers(0, n, size=int(rng.integers(0, 10)))
    return CSRGraph.from_edges(np.r_[src, loops], np.r_[dst, loops], n)


def random_assignment(graph, k, seed):
    rng = np.random.default_rng(1000 + seed)
    return PartitionAssignment(rng.integers(0, k, size=graph.num_vertices), k)


def unique_mirror_pairs(graph, assignment, direction):
    """The sort-based ``build_mirror_table`` body."""
    src, dst = graph.edge_array()
    p_src = assignment.parts[src]
    p_dst = assignment.parts[dst]
    cross = p_src != p_dst
    if direction == "push":
        vert, part = dst[cross], p_src[cross]
    else:
        vert, part = src[cross], p_dst[cross]
    keys = np.unique(vert * np.int64(assignment.num_parts) + part)
    return keys // assignment.num_parts, keys % assignment.num_parts


def unique_communication_volume(graph, assignment):
    """The sort-based ``communication_volume`` body."""
    src, dst = graph.edge_array()
    p_src = assignment.parts[src]
    p_dst = assignment.parts[dst]
    cross = p_src != p_dst
    if not cross.any():
        return 0
    return int(
        np.unique(dst[cross] * np.int64(assignment.num_parts) + p_src[cross]).size
    )


def unique_host_shuffle_pairs(profile, parts, hosts, offload_mask=None):
    """The sort-based pair count of ``_host_shuffle_bytes``: pairs whose
    part is outside ``offload_mask`` (every pair when it is ``None``)."""
    pair_dst, pair_part = profile.pair_dst, profile.pair_part
    if offload_mask is not None:
        fetched = ~offload_mask[pair_part]
        pair_dst, pair_part = pair_dst[fetched], pair_part[fetched]
    if pair_dst.size == 0:
        return 0
    src_host = pair_part % hosts
    dst_host = parts[pair_dst] % hosts
    cross = src_host != dst_host
    if not cross.any():
        return 0
    keys = np.unique(pair_dst[cross] * np.int64(hosts) + src_host[cross])
    return int(keys.size)


@pytest.mark.parametrize("k", PART_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_pairs_matches_sort_oracle(seed, k):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 400))
    # One scratch across calls: each call must leave its flags all-False.
    # Many pairs (the direct n * k grid) first, so the smaller ranked
    # |touched| * k grids that follow reuse its buffer, then back up.
    scratch = ProfileScratch()
    for m in (4 * n * k, n // 8 + 1, 1, n // 8 + 1, 4 * n * k):
        vertices = rng.integers(0, n, size=m).astype(np.uint32)
        parts = rng.integers(0, k, size=m)
        touched, pair_vertex, pair_part, per_vertex = distinct_pairs(
            vertices, parts, k, n, scratch
        )
        keys = np.unique(vertices.astype(np.int64) * k + parts)
        _, expected_per_vertex = np.unique(keys // k, return_counts=True)
        np.testing.assert_array_equal(touched, np.unique(vertices))
        np.testing.assert_array_equal(pair_vertex, keys // k)
        np.testing.assert_array_equal(pair_part, keys % k)
        np.testing.assert_array_equal(per_vertex, expected_per_vertex)
        for arr in (touched, pair_vertex, pair_part, per_vertex):
            assert arr.dtype == np.int64


@pytest.mark.parametrize("k", PART_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_tables_and_volume_match_unique_oracle(seed, k):
    graph = random_graph(seed)
    assignment = random_assignment(graph, k, seed)
    for direction in ("push", "pull"):
        table = build_mirror_table(graph, assignment, direction=direction)
        vert, part = unique_mirror_pairs(graph, assignment, direction)
        np.testing.assert_array_equal(table.mirror_vertices, vert)
        np.testing.assert_array_equal(table.mirror_parts, part)
        assert table.mirror_vertices.dtype == table.mirror_parts.dtype == np.int64
    assert communication_volume(graph, assignment) == unique_communication_volume(
        graph, assignment
    )


@pytest.mark.parametrize("hosts", [2, 3])
@pytest.mark.parametrize("k", PART_COUNTS)
def test_host_shuffle_matches_unique_oracle(k, hosts):
    simulator = DisaggregatedSimulator(
        SystemConfig(num_compute_nodes=hosts, num_memory_nodes=k)
    )
    for seed in SEEDS:
        graph = random_graph(seed)
        assignment = random_assignment(graph, k, seed)
        # PageRank's full frontiers and BFS's sparse ones.
        for kernel, source in ((PageRank(), None), (BFS(), 0)):
            trace = record_trace(
                graph,
                kernel,
                assignment=assignment,
                source=source,
                max_iterations=4,
                with_mirrors=False,
            )
            ctx = types.SimpleNamespace(assignment=assignment, kernel=kernel)
            # Mixed offload masks: only the fetched shards' pairs reshuffle.
            rng = np.random.default_rng(2000 + seed)
            masks = [None] + [rng.random(k) < 0.5 for _ in range(3)]
            for profile in trace.profiles:
                for mask in masks:
                    expected = unique_host_shuffle_pairs(
                        profile, assignment.parts, hosts, mask
                    )
                    fetched = None if mask is None else ~mask[profile.pair_part]
                    assert simulator._host_shuffle_bytes(profile, ctx, fetched) == (
                        expected * kernel.message.wire_bytes
                    )
