"""Property-based tests on the graph substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import csr
from repro.graph.csr import CSRGraph, index_dtype_for
from repro.graph.traversal import bfs_levels
from support.graph_stats import gini
from support.traversal import weak_component_labels


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def lexsort_from_edges(src, dst, num_vertices, weights, dedup, sort_neighbors):
    """Two-key ``np.lexsort`` construction: the oracle for the one-key sort.

    Returns ``(indptr, indices, weights)`` as ``CSRGraph.from_edges`` must
    store them; a stable sort keeps duplicate pairs in input order, so
    ``dedup`` keeps each pair's first weight.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if sort_neighbors or dedup:
        order = np.lexsort((dst, src))
    else:
        order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[order]
    if dedup and src.size:
        keep = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    n = num_vertices
    if n is None:
        n = int(max(src.max(), dst.max())) + 1 if src.size else 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst, weights


@st.composite
def weighted_edge_lists(draw, max_ids=10, max_edges=60):
    """Edges over few ids (so duplicates and self-loops are common), with
    weights, an explicit or inferred vertex count, and isolated tail ids."""
    ids = draw(st.integers(min_value=0, max_value=max_ids))
    m = draw(st.integers(min_value=0, max_value=max_edges)) if ids else 0
    src = draw(st.lists(st.integers(0, max(ids - 1, 0)), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, max(ids - 1, 0)), min_size=m, max_size=m))
    weights = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=m, max_size=m
        )
    )
    extra = draw(st.integers(min_value=0, max_value=3))
    explicit = draw(st.booleans())
    num_vertices = ids + extra if explicit else None
    return num_vertices, src, dst, weights


def assert_matches_lexsort(data, weighted, dedup, sort_neighbors, id_dtype):
    num_vertices, src, dst, weights = data
    src = np.asarray(src, dtype=id_dtype)
    dst = np.asarray(dst, dtype=id_dtype)
    weights = np.asarray(weights, dtype=np.float64) if weighted else None
    g = CSRGraph.from_edges(
        src, dst, num_vertices, weights, dedup=dedup, sort_neighbors=sort_neighbors
    )
    indptr, indices, expected_weights = lexsort_from_edges(
        src, dst, num_vertices, weights, dedup, sort_neighbors
    )
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)
    assert g.indices.dtype == index_dtype_for(indptr.size - 1)
    if weighted:
        # Exact, not allclose: the first weight of each duplicate wins.
        np.testing.assert_array_equal(g.weights, expected_weights)
    else:
        assert g.weights is None


@given(
    weighted_edge_lists(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([np.uint32, np.int64]),
)
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_lexsort_oracle(
    data, weighted, dedup, sort_neighbors, id_dtype
):
    assert_matches_lexsort(data, weighted, dedup, sort_neighbors, id_dtype)


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("sort_neighbors", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_from_edges_lexsort_branch_matches_oracle(
    monkeypatch, dedup, sort_neighbors, weighted
):
    # The two-key branch serves only n > 3_037_000_499, where src * n + dst
    # would overflow int64; lower the bound so small graphs take it.
    calls = []
    lexsort = csr._lexsort
    monkeypatch.setattr(csr, "_MAX_KEY_VERTICES", 0)
    monkeypatch.setattr(
        csr, "_lexsort", lambda *args: calls.append(args) or lexsort(*args)
    )
    rng = np.random.default_rng(5)
    for ids, m in ((0, 0), (1, 3), (6, 40), (12, 200)):
        src = rng.integers(0, max(ids, 1), size=m)
        dst = rng.integers(0, max(ids, 1), size=m)
        weights = rng.normal(size=m)
        data = (ids + 2 if ids else None, src, dst, weights)
        for id_dtype in (np.uint32, np.int64):
            assert_matches_lexsort(data, weighted, dedup, sort_neighbors, id_dtype)
    assert bool(calls) == (sort_neighbors or dedup)


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_structural_invariants(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    # indptr monotone, covers all edges
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.num_edges == src.size
    assert np.all(np.diff(g.indptr) >= 0)
    # degrees consistent
    assert g.out_degrees.sum() == g.num_edges
    assert g.in_degrees.sum() == g.num_edges
    g.validate()


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_edge_multiset_preserved(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    s2, d2 = g.edge_array()
    original = sorted(zip(src.tolist(), dst.tolist()))
    rebuilt = sorted(zip(s2.tolist(), d2.tolist()))
    assert original == rebuilt


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_reverse_involution(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    assert g.reverse().reverse() == g
    # reverse swaps degree roles
    assert np.array_equal(g.reverse().out_degrees, g.in_degrees)


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_symmetrized_is_symmetric_and_superset(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n, dedup=True)
    s = g.symmetrized()
    assert np.array_equal(s.out_degrees, s.in_degrees)
    # every original edge survives
    ss, sd = s.edge_array()
    pairs = set(zip(ss.tolist(), sd.tolist()))
    for u, v in zip(*g.edge_array()):
        assert (int(u), int(v)) in pairs


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_dedup_idempotent(data):
    n, src, dst = data
    once = CSRGraph.from_edges(src, dst, n, dedup=True)
    s, d = once.edge_array()
    twice = CSRGraph.from_edges(s, d, n, dedup=True)
    assert once == twice


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_bfs_levels_are_shortest(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    levels = bfs_levels(g, 0)
    assert levels[0] == 0
    # every edge relaxes by at most one level
    for u, v in zip(*g.edge_array()):
        if levels[u] >= 0:
            assert levels[v] >= 0
            assert levels[v] <= levels[u] + 1


@given(edge_lists())
@settings(max_examples=30, deadline=None)
def test_component_labels_are_fixpoints(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    labels = weak_component_labels(g)
    # endpoints of every edge share a label; labels are component minima
    for u, v in zip(*g.edge_array()):
        assert labels[u] == labels[v]
    for comp in np.unique(labels):
        members = np.nonzero(labels == comp)[0]
        assert comp == members.min()


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=60).map(np.asarray)
)
@settings(max_examples=50, deadline=None)
def test_gini_bounds(values):
    v = gini(values.astype(np.float64))
    assert -1e-9 <= v < 1.0
