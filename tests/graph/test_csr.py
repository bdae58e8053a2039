"""Unit tests for the CSR graph core."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_from_edges_infers_vertex_count(self):
        g = CSRGraph.from_edges([0, 5], [3, 2])
        assert g.num_vertices == 6

    def test_from_edges_explicit_larger_vertex_count(self):
        g = CSRGraph.from_edges([0], [1], 10)
        assert g.num_vertices == 10
        assert g.out_degrees[9] == 0

    def test_from_edges_rejects_too_small_vertex_count(self):
        with pytest.raises(GraphError, match="smaller than max vertex id"):
            CSRGraph.from_edges([0, 7], [1, 2], 3)

    def test_from_edges_rejects_negative_ids(self):
        with pytest.raises(GraphError, match="non-negative"):
            CSRGraph.from_edges([-1], [0])

    def test_from_edges_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal length"):
            CSRGraph.from_edges([0, 1], [1])

    def test_from_edges_dedup(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2], 3, dedup=True)
        assert g.num_edges == 2
        assert list(g.neighbors(0)) == [1, 2]

    def test_from_edges_dedup_keeps_first_weight(self):
        g = CSRGraph.from_edges(
            [0, 0], [1, 1], 2, weights=[5.0, 9.0], dedup=True
        )
        assert g.num_edges == 1
        assert g.weights[0] == 5.0

    def test_from_edges_sorts_neighbors(self):
        g = CSRGraph.from_edges([0, 0, 0], [5, 1, 3], 6)
        assert list(g.neighbors(0)) == [1, 3, 5]

    def test_from_edges_unsorted_neighbors_preserved(self):
        g = CSRGraph.from_edges([0, 0], [5, 1], 6, sort_neighbors=False)
        assert list(g.neighbors(0)) == [5, 1]

    def test_empty_graph(self):
        g = CSRGraph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_empty_graph_no_vertices(self):
        g = CSRGraph.empty()
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphError, match="weights length"):
            CSRGraph.from_edges([0], [1], 2, weights=[1.0, 2.0])

    def test_zero_edges_with_vertices(self):
        g = CSRGraph.from_edges([], [], 5)
        assert g.num_vertices == 5
        assert g.num_edges == 0


class TestValidation:
    def test_validate_rejects_bad_indptr_start(self):
        with pytest.raises(GraphError, match="indptr"):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_validate_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_validate_rejects_indptr_indices_mismatch(self):
        with pytest.raises(GraphError, match="len\\(indices\\)"):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_validate_rejects_out_of_range_destination(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_validate_skipped_when_requested(self):
        # validate=False lets internal callers skip the O(m) checks.
        g = CSRGraph(np.array([0, 1]), np.array([0]), validate=False)
        g.validate()  # still checkable later


class TestAccessors:
    def test_degrees(self, two_triangles):
        assert np.array_equal(two_triangles.out_degrees, np.ones(6, dtype=np.int64))
        assert np.array_equal(two_triangles.in_degrees, np.ones(6, dtype=np.int64))

    def test_edge_array_roundtrip(self, tiny_er):
        src, dst = tiny_er.edge_array()
        rebuilt = CSRGraph.from_edges(src, dst, tiny_er.num_vertices)
        assert rebuilt == tiny_er

    def test_memory_footprint_counts_arrays(self):
        g = CSRGraph.from_edges([0], [1], 2)
        expected = g.indptr.nbytes + g.indices.nbytes
        assert g.memory_footprint_bytes() == expected

    def test_memory_footprint_includes_weights(self):
        g = CSRGraph.from_edges([0], [1], 2, weights=[1.0])
        assert g.memory_footprint_bytes() == (
            g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes
        )


class TestDerivedGraphs:
    def test_reverse_flips_edges(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        r = g.reverse()
        assert list(r.neighbors(1)) == [0]
        assert list(r.neighbors(2)) == [1]
        assert list(r.neighbors(0)) == []

    def test_reverse_is_cached(self, tiny_er):
        assert tiny_er.reverse() is tiny_er.reverse()

    def test_double_reverse_equals_original(self, tiny_er):
        assert tiny_er.reverse().reverse() == tiny_er

    def test_symmetrized_has_both_directions(self):
        g = CSRGraph.from_edges([0], [1], 2)
        s = g.symmetrized()
        assert list(s.neighbors(0)) == [1]
        assert list(s.neighbors(1)) == [0]

    def test_symmetrized_in_equals_out_degree(self, tiny_rmat):
        s = tiny_rmat.symmetrized()
        assert np.array_equal(s.out_degrees, s.in_degrees)

    def test_without_self_loops(self):
        g = CSRGraph.from_edges([0, 1, 1], [0, 1, 2], 3)
        clean = g.without_self_loops()
        assert clean.num_edges == 1
        assert list(clean.neighbors(1)) == [2]

    def test_subgraph_relabels(self):
        g = CSRGraph.from_edges([0, 1, 2, 3], [1, 2, 3, 0], 4)
        sub, mapping = g.subgraph([1, 2])
        assert sub.num_vertices == 2
        assert list(mapping) == [1, 2]
        assert list(sub.neighbors(0)) == [1]  # edge 1 -> 2 survives

    def test_subgraph_out_of_range(self, tiny_er):
        with pytest.raises(GraphError, match="out of range"):
            tiny_er.subgraph([tiny_er.num_vertices])

    def test_with_uniform_weights(self, tiny_er):
        w = tiny_er.with_uniform_weights(2.5)
        assert w.has_weights
        assert np.all(w.weights == 2.5)
        assert w.num_edges == tiny_er.num_edges


class TestDunder:
    def test_equality(self):
        a = CSRGraph.from_edges([0], [1], 2)
        b = CSRGraph.from_edges([0], [1], 2)
        assert a == b

    def test_inequality_different_edges(self):
        a = CSRGraph.from_edges([0], [1], 3)
        b = CSRGraph.from_edges([1], [2], 3)
        assert a != b

    def test_inequality_weighted_vs_unweighted(self):
        a = CSRGraph.from_edges([0], [1], 2)
        b = CSRGraph.from_edges([0], [1], 2, weights=[1.0])
        assert a != b

    def test_eq_non_graph(self, tiny_er):
        assert tiny_er != "not a graph"

    def test_repr_contains_counts(self):
        g = CSRGraph.from_edges([0], [1], 2)
        assert "n=2" in repr(g)
        assert "m=1" in repr(g)

    def test_repr_marks_weighted(self):
        g = CSRGraph.from_edges([0], [1], 2, weights=[1.0])
        assert "weighted" in repr(g)


class TestIndexDtype:
    def test_narrow_dtype_by_default(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        assert g.index_dtype == np.dtype(np.uint32)
        assert g.indices.dtype == np.dtype(np.uint32)
        assert g.indptr.dtype == np.dtype(np.int64)  # offsets stay wide

    def test_index_dtype_for_boundaries(self):
        from repro.graph.csr import index_dtype_for

        assert index_dtype_for(0) == np.dtype(np.uint32)
        assert index_dtype_for(2**32 - 1) == np.dtype(np.uint32)
        assert index_dtype_for(2**32) == np.dtype(np.int64)

    def test_explicit_wide_dtype_preserved(self):
        g = CSRGraph(
            np.array([0, 1, 1], dtype=np.int64),
            np.array([1], dtype=np.int64),
            index_dtype=np.dtype(np.int64),
        )
        assert g.index_dtype == np.dtype(np.int64)

    def test_narrowing_rejects_negative_index(self):
        with pytest.raises(GraphError):
            CSRGraph(
                np.array([0, 1, 1], dtype=np.int64),
                np.array([-1], dtype=np.int64),
                validate=False,
            )

    def test_equality_across_dtypes(self):
        narrow = CSRGraph.from_edges([0, 1], [1, 2], 3)
        wide = CSRGraph(
            narrow.indptr.copy(),
            narrow.indices.astype(np.int64),
            index_dtype=np.dtype(np.int64),
        )
        # Same topology: structural equality ignores the storage width.
        assert narrow == wide

    def test_digest_includes_dtype(self):
        narrow = CSRGraph.from_edges([0, 1], [1, 2], 3)
        wide = CSRGraph(
            narrow.indptr.copy(),
            narrow.indices.astype(np.int64),
            index_dtype=np.dtype(np.int64),
        )
        assert narrow.digest != wide.digest
        # But equal content + equal dtype => equal digest, cached.
        again = CSRGraph.from_edges([0, 1], [1, 2], 3)
        assert narrow.digest == again.digest

    def test_uid_monotonic_and_unique(self):
        a = CSRGraph.from_edges([0], [1], 2)
        b = CSRGraph.from_edges([0], [1], 2)
        assert b.uid > a.uid

    def test_gather_promotes_to_int64(self):
        # Downstream profiling relies on uint32 indices promoting to int64
        # in arithmetic with int64 part ids.
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3)
        parts = np.zeros(3, dtype=np.int64)
        keys = g.indices.astype(np.int64) * np.int64(4) + parts[:3]
        assert keys.dtype == np.dtype(np.int64)
