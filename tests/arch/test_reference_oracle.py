"""Differential tests: O(E) profiling vs the sort-based oracle, and
narrow-index (uint32) CSR vs wide (int64) CSR.

The engine's hot path (:func:`repro.arch.engine.frontier_structure`) must be
*bit-identical* — values and dtypes — to the ``np.unique`` formulation kept
in :mod:`repro.arch.reference`.  These tests fuzz that equivalence over
random frontiers, degenerate shapes, and every engine kernel, then check
that the CSR index width is invisible to the ledgers and results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.engine import (
    StructuralProfileCache,
    execute_iteration,
    frontier_structure,
    prepare_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, star_graph
from repro.kernels.registry import get_kernel, list_kernels
from repro.partition.random_hash import HashPartitioner
from repro.runtime.config import SystemConfig
from support.structure_reference import frontier_structure_reference

ENGINE_KERNELS = sorted(list_kernels())

STRUCTURE_FIELDS = (
    "touched",
    "frontier_per_part",
    "edges_per_part",
    "pair_dst",
    "pair_part",
    "partials_per_part",
    "updates_per_destination",
)


#: per-edge arrays, compared by value: a reused structure widens ``dst``
EDGE_FIELDS = ("src", "dst", "weights")


def assert_structures_identical(fast, ref):
    """Values AND dtypes must match — the contract tests pin both."""
    assert fast.edges_traversed == ref.edges_traversed
    for name in STRUCTURE_FIELDS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype, f"{name}: {a.dtype} != {b.dtype}"
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in EDGE_FIELDS:
        np.testing.assert_array_equal(
            getattr(fast, name), getattr(ref, name), err_msg=name
        )


def make_frontier(kind, n, rng):
    """A frontier over ``n`` vertices: a random sorted subset, all but one
    or all but 1% of the vertices, or a random subset in random order."""
    if kind == "random":
        size = int(rng.integers(0, n + 1))
        return np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
    if kind == "all-but-one":
        return np.delete(np.arange(n, dtype=np.int64), rng.integers(n))
    if kind == "all-but-1pct":
        dropped = rng.choice(n, size=max(1, n // 100), replace=False)
        return np.setdiff1d(np.arange(n, dtype=np.int64), dropped)
    assert kind == "unsorted"
    return rng.permutation(n)[: int(rng.integers(1, n + 1))].astype(np.int64)


FRONTIER_CASES = [
    pytest.param(seed, "random", False, id=str(seed)) for seed in range(6)
] + [
    pytest.param(seed, kind, weighted, id=f"{kind}-{label}-{seed}")
    for kind in ("random", "all-but-one", "all-but-1pct", "unsorted")
    for weighted, label in ((False, "unweighted"), (True, "weighted"))
    if (kind, weighted) != ("random", False)
    for seed in range(3)
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed, kind, weighted", FRONTIER_CASES)
    def test_random_frontiers_match(self, seed, kind, weighted):
        graph = rmat(9, 6, seed=seed, weighted=weighted)
        assignment = HashPartitioner().partition(graph, 5, seed=seed)
        rng = np.random.default_rng(seed)
        frontier = make_frontier(kind, graph.num_vertices, rng)
        fast = frontier_structure(graph, frontier, assignment)
        ref = frontier_structure_reference(graph, frontier, assignment)
        assert_structures_identical(fast, ref)

    @pytest.mark.parametrize(
        "num_parts, weighted",
        [
            pytest.param(1, False, id="1"),
            pytest.param(3, False, id="3"),
            pytest.param(8, False, id="8"),
            pytest.param(3, True, id="weighted-3"),
        ],
    )
    def test_all_vertices_fast_path_matches(self, num_parts, weighted):
        graph = rmat(9, 6, seed=11, weighted=weighted)
        assignment = HashPartitioner().partition(graph, num_parts, seed=1)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        fast = frontier_structure(graph, frontier, assignment)
        assert fast.all_vertices
        ref = frontier_structure_reference(graph, frontier, assignment)
        assert_structures_identical(fast, ref)
        # Reused through a cache, the structure reduces through intp dst.
        cache = StructuralProfileCache()
        frontier_structure(graph, frontier, assignment, cache=cache)
        reused = frontier_structure(graph, frontier, assignment, cache=cache)
        assert cache.hits == 1 and reused.dst.dtype == np.intp
        assert_structures_identical(reused, ref)

    def test_empty_frontier_matches(self, lj_tiny):
        assignment = HashPartitioner().partition(lj_tiny, 4, seed=0)
        frontier = np.empty(0, dtype=np.int64)
        fast = frontier_structure(lj_tiny, frontier, assignment)
        ref = frontier_structure_reference(lj_tiny, frontier, assignment)
        assert fast.edges_traversed == 0
        assert_structures_identical(fast, ref)

    def test_isolated_vertices_match(self):
        # A star: the hub fans out, every leaf is sink-only; the all-vertex
        # frontier includes vertices with zero out-degree.
        graph = star_graph(40)
        assignment = HashPartitioner().partition(graph, 4, seed=2)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        fast = frontier_structure(graph, frontier, assignment)
        ref = frontier_structure_reference(graph, frontier, assignment)
        assert_structures_identical(fast, ref)
        # Exactly one distinct-destination set: the 40 leaves.
        assert fast.touched.size == 40

    def test_self_loops_match(self):
        indptr = np.array([0, 2, 3, 4, 4], dtype=np.int64)
        indices = np.array([0, 1, 1, 3], dtype=np.int64)  # two self-loops
        graph = CSRGraph(indptr, indices)
        assignment = HashPartitioner().partition(graph, 3, seed=0)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        fast = frontier_structure(graph, frontier, assignment)
        ref = frontier_structure_reference(graph, frontier, assignment)
        assert_structures_identical(fast, ref)

    def test_repeated_calls_share_scratch_safely(self):
        # Back-to-back profiles through the module scratch must not leak
        # state between (graph, frontier) pairs.
        g1 = rmat(8, 5, seed=3)
        g2 = rmat(7, 4, seed=4)
        a1 = HashPartitioner().partition(g1, 4, seed=0)
        a2 = HashPartitioner().partition(g2, 6, seed=0)
        for graph, assignment in ((g1, a1), (g2, a2), (g1, a1)):
            frontier = np.arange(0, graph.num_vertices, 2, dtype=np.int64)
            fast = frontier_structure(graph, frontier, assignment)
            ref = frontier_structure_reference(graph, frontier, assignment)
            assert_structures_identical(fast, ref)


class TestOracleEquivalenceInTraces:
    @pytest.mark.parametrize("kernel_name", ENGINE_KERNELS)
    def test_every_kernel_profile_matches_oracle(self, kernel_name):
        # Step the real kernel and compare the engine profile against the
        # oracle at every live frontier it actually produces.
        kernel = get_kernel(kernel_name)
        graph = rmat(8, 6, seed=5, weighted=True)
        prepared = prepare_graph(graph, kernel)
        assignment = HashPartitioner().partition(prepared, 4, seed=1)
        source = (
            int(prepared.out_degrees.argmax()) if kernel.needs_source else None
        )
        state = kernel.initial_state(prepared, source=source)
        iterations = 0
        for _ in range(6):
            if state.frontier.size == 0:
                break
            frontier = state.frontier.copy()
            fast = frontier_structure(prepared, frontier, assignment)
            ref = frontier_structure_reference(prepared, frontier, assignment)
            assert_structures_identical(fast, ref)
            execute_iteration(kernel, state, assignment)
            iterations += 1
            if kernel.has_converged(state):
                break
        assert iterations > 0


class TestNarrowIndexEquivalence:
    SIMULATORS = (
        DistributedSimulator,
        DistributedNDPSimulator,
        DisaggregatedSimulator,
        DisaggregatedNDPSimulator,
    )

    @staticmethod
    def _wide_copy(graph: CSRGraph) -> CSRGraph:
        wide = CSRGraph(
            graph.indptr.copy(),
            graph.indices.astype(np.int64),
            None if graph.weights is None else graph.weights.copy(),
            index_dtype=np.dtype(np.int64),
        )
        assert wide.index_dtype == np.dtype(np.int64)
        return wide

    def test_narrow_dtype_selected_automatically(self):
        graph = rmat(8, 4, seed=9)
        assert graph.index_dtype == np.dtype(np.uint32)

    @pytest.mark.parametrize("kernel_name", ["pagerank", "bfs", "sssp"])
    def test_ledgers_and_results_identical_across_dtypes(self, kernel_name):
        kernel = get_kernel(kernel_name)
        narrow = rmat(8, 6, seed=13, weighted=True)
        wide = self._wide_copy(narrow)
        assert narrow.index_dtype != wide.index_dtype
        config = SystemConfig(num_memory_nodes=4)
        source = int(narrow.out_degrees.argmax()) if kernel.needs_source else None
        for sim_cls in self.SIMULATORS:
            runs = []
            for graph in (narrow, wide):
                assignment = HashPartitioner().partition(graph, 4, seed=0)
                runs.append(
                    sim_cls(config).run(
                        graph,
                        kernel,
                        assignment=assignment,
                        source=source,
                        max_iterations=8,
                    )
                )
            a, b = runs
            assert a.ledger.breakdown() == b.ledger.breakdown(), sim_cls.name
            np.testing.assert_array_equal(
                a.result_property(), b.result_property()
            )
            assert a.num_iterations == b.num_iterations
            assert a.total_seconds == b.total_seconds

    def test_profiles_identical_across_dtypes(self):
        narrow = rmat(9, 5, seed=21)
        wide = self._wide_copy(narrow)
        for graph in (narrow, wide):
            assert graph.num_vertices == narrow.num_vertices
        a1 = HashPartitioner().partition(narrow, 6, seed=3)
        a2 = HashPartitioner().partition(wide, 6, seed=3)
        rng = np.random.default_rng(0)
        frontier = np.sort(
            rng.choice(narrow.num_vertices, size=200, replace=False)
        ).astype(np.int64)
        fast_n = frontier_structure(narrow, frontier, a1)
        fast_w = frontier_structure(wide, frontier, a2)
        assert_structures_identical(fast_n, fast_w)

    def test_digest_tracks_index_dtype(self):
        narrow = rmat(7, 4, seed=2)
        wide = self._wide_copy(narrow)
        assert narrow.digest != wide.digest
