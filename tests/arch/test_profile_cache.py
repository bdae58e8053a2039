"""Structural-profile cache: hits for stable frontiers, misses otherwise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import engine
from repro.arch.compare import compare_architectures
from repro.arch.engine import (
    StructuralProfileCache,
    frontier_structure,
    prepare_graph,
)
from repro.arch.trace import record_trace
from repro.kernels.pagerank import PageRank
from repro.kernels.registry import get_kernel
from repro.partition.random_hash import HashPartitioner
from repro.runtime.config import SystemConfig


@pytest.fixture
def assigned(lj_tiny):
    kernel = get_kernel("pagerank")
    prepared = prepare_graph(lj_tiny, kernel)
    assignment = HashPartitioner().partition(prepared, 4, seed=0)
    return prepared, assignment


class TestCacheUnit:
    def test_identical_frontier_hits(self, assigned):
        graph, assignment = assigned
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        first = frontier_structure(graph, frontier, assignment, cache=cache)
        second = frontier_structure(graph, frontier.copy(), assignment, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        # A hit replays the stored structure, not a recomputed equal one.
        assert second is first

    def test_cached_structure_matches_uncached(self, assigned):
        graph, assignment = assigned
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        frontier_structure(graph, frontier, assignment, cache=cache)
        cached = frontier_structure(graph, frontier, assignment, cache=cache)
        fresh = frontier_structure(graph, frontier, assignment)
        np.testing.assert_array_equal(cached.dst, fresh.dst)
        np.testing.assert_array_equal(cached.pair_dst, fresh.pair_dst)
        np.testing.assert_array_equal(cached.pair_part, fresh.pair_part)
        np.testing.assert_array_equal(
            cached.partials_per_part, fresh.partials_per_part
        )
        np.testing.assert_array_equal(
            cached.updates_per_destination, fresh.updates_per_destination
        )
        np.testing.assert_array_equal(cached.edges_per_part, fresh.edges_per_part)
        assert cached.edges_traversed == fresh.edges_traversed

    def test_shrinking_frontier_invalidates(self, assigned):
        graph, assignment = assigned
        cache = StructuralProfileCache()
        full = np.arange(graph.num_vertices, dtype=np.int64)
        frontier_structure(graph, full, assignment, cache=cache)
        shrunk = full[: graph.num_vertices // 2]
        frontier_structure(graph, shrunk, assignment, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        # And the shrunk entry replaced the full one.
        frontier_structure(graph, shrunk, assignment, cache=cache)
        assert cache.hits == 1

    def test_assignment_change_invalidates(self, assigned):
        graph, assignment = assigned
        other = HashPartitioner().partition(graph, 4, seed=99)
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        frontier_structure(graph, frontier, assignment, cache=cache)
        frontier_structure(graph, frontier, other, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_fresh_equal_objects_miss(self, assigned):
        # Graphs and assignments are keyed by monotonic uid tokens, not
        # id(): a *different* object with equal content must miss even if
        # CPython happens to reuse the dead object's memory address.
        graph, assignment = assigned
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        frontier_structure(graph, frontier, assignment, cache=cache)

        clone_assignment = HashPartitioner().partition(graph, 4, seed=0)
        np.testing.assert_array_equal(clone_assignment.parts, assignment.parts)
        assert clone_assignment.uid != assignment.uid
        frontier_structure(graph, frontier, clone_assignment, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)

        from repro.graph.csr import CSRGraph

        clone_graph = CSRGraph(
            graph.indptr.copy(), graph.indices.copy(), validate=False
        )
        assert clone_graph.uid != graph.uid
        frontier_structure(clone_graph, frontier, clone_assignment, cache=cache)
        assert (cache.hits, cache.misses) == (0, 3)

    def test_uid_reuse_regression(self, assigned):
        # The historical failure mode: key by id(), free the object, and a
        # newly allocated object at the same address replays a stale entry.
        # uids are monotonic for the life of the process, so even thousands
        # of allocate/free cycles can never produce a colliding key.
        graph, _ = assigned
        seen = set()
        for _ in range(200):
            a = HashPartitioner().partition(graph, 4, seed=0)
            assert a.uid not in seen
            seen.add(a.uid)
            del a

    def test_stored_arrays_are_read_only(self, assigned):
        graph, assignment = assigned
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        structure = frontier_structure(graph, frontier, assignment, cache=cache)
        for arr in (structure.pair_dst, structure.partials_per_part):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_reused_structure_reduces_through_native_indices(self, assigned):
        graph, assignment = assigned
        assert graph.indices.dtype != np.intp
        cache = StructuralProfileCache()
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        first = frontier_structure(graph, frontier, assignment, cache=cache)
        # A structure used once keeps the CSR's own narrow indices.
        assert first.dst is graph.indices
        again = frontier_structure(graph, frontier, assignment, cache=cache)
        assert again is first
        assert again.dst.dtype == np.intp
        assert not again.dst.flags.writeable
        # The CSR keeps its narrow indices; only the structure widens.
        np.testing.assert_array_equal(again.dst, graph.indices)
        assert graph.indices.dtype != np.intp


class TestCacheInTraces:
    def test_pagerank_hits_every_iteration_after_first(self, lj_tiny):
        trace = record_trace(
            lj_tiny, get_kernel("pagerank"), num_parts=4, max_iterations=6
        )
        assert trace.cache_misses == 1
        assert trace.cache_hits == trace.num_iterations - 1

    def test_bfs_frontier_never_repeats(self, lj_tiny):
        source = int(lj_tiny.out_degrees.argmax())
        trace = record_trace(
            lj_tiny, get_kernel("bfs"), num_parts=4, source=source
        )
        assert trace.cache_hits == 0
        assert trace.cache_misses == trace.num_iterations


class TestOwnerCountsPerStructure:
    def test_pagerank_compare_counts_once_per_structure(self, lj_tiny, monkeypatch):
        # All 50 profiles share one all-vertices structure and all four
        # accounting passes one owner map, so the cross-pair count and the
        # per-owner histogram are each computed once for the compare.
        calls = {"cross": 0, "owner": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(
            engine, "_count_cross_pairs", spy("cross", engine._count_cross_pairs)
        )
        monkeypatch.setattr(
            engine,
            "_count_updates_per_owner",
            spy("owner", engine._count_updates_per_owner),
        )
        comparison = compare_architectures(
            lj_tiny,
            PageRank(tolerance=0.0),
            config=SystemConfig(num_memory_nodes=4),
            max_iterations=50,
        )
        assert all(row.run.num_iterations == 50 for row in comparison.rows)
        assert calls == {"cross": 1, "owner": 1}

        trace = record_trace(lj_tiny, PageRank(), num_parts=4, max_iterations=3)
        owner = trace.assignment.parts
        cross = [p.cross_update_pairs(owner) for p in trace.profiles]
        assert calls["cross"] == 2
        assert len(set(cross)) == 1
        # Another owner map, even an equal one, is counted afresh.
        trace.profiles[-1].cross_update_pairs(owner.copy())
        assert calls["cross"] == 3
