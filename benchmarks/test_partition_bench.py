"""Partitioning-pipeline benchmarks (BENCH_partition.json).

Times the vectorized streaming partitioners against their scalar reference
implementations (which are kept, verbatim, in
``repro.partition.reference``), the graph-preparation primitives against
the sort-based code they replaced (kept here), plus the artifact cache on
the full setup path (dataset generation -> ``prepare_trace``: closure,
partition, mirror table).  The execute-once benchmarks emit
machine-readable numbers to ``benchmarks/out/BENCH_partition.json``; the
same-process ratio bars at the largest scale are rows in
``check_regression.py``.
"""

import time

import numpy as np
from conftest import min_of, write_bench

from repro import cache as repro_cache
from repro.arch.trace import prepare_trace
from repro.cache.store import ArtifactCache
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.kernels.cc import ConnectedComponents
from repro.partition.base import PartitionAssignment
from repro.partition.bfs_grow import BFSGrowPartitioner
from repro.partition.mirrors import build_mirror_table
from repro.partition.reference import bfs_grow_reference, ldg_reference
from repro.partition.streaming import LDGStreamingPartitioner

#: (label, tier) pairs; the last entry is the acceptance scale.
SCALES = [("small", "small"), ("medium", "medium")]
DATASET = "livejournal-sim"
NUM_PARTS = 16
SEED = 7


def _graph(tier):
    graph, _ = load_dataset(DATASET, tier=tier, seed=SEED)
    return graph


def test_ldg_vectorized_vs_reference():
    """Vectorized LDG: bit-identical to the reference, timed against it."""
    payload = {}
    for label, tier in SCALES:
        graph = _graph(tier)
        partitioner = LDGStreamingPartitioner()
        ref_seconds, ref = min_of(
            lambda: ldg_reference(graph, NUM_PARTS, seed=SEED)
        )
        vec_seconds, vec = min_of(
            lambda: partitioner.partition(graph, NUM_PARTS, seed=SEED)
        )
        np.testing.assert_array_equal(vec.parts, ref.parts)
        payload[label] = {
            "dataset": f"{DATASET}/{tier}",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "partitions": NUM_PARTS,
            "reference_seconds": ref_seconds,
            "vectorized_seconds": vec_seconds,
            "speedup": ref_seconds / vec_seconds,
            "bit_identical": True,
        }
    write_bench("BENCH_partition.json", "ldg", payload)


def test_bfs_grow_vectorized_vs_reference():
    """Frontier-batched BFS-grow: bit-identical to the reference, timed against it."""
    payload = {}
    for label, tier in SCALES:
        graph = _graph(tier)
        partitioner = BFSGrowPartitioner()
        ref_seconds, ref = min_of(
            lambda: bfs_grow_reference(graph, NUM_PARTS, seed=SEED)
        )
        vec_seconds, vec = min_of(
            lambda: partitioner.partition(graph, NUM_PARTS, seed=SEED)
        )
        np.testing.assert_array_equal(vec.parts, ref.parts)
        payload[label] = {
            "dataset": f"{DATASET}/{tier}",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "partitions": NUM_PARTS,
            "reference_seconds": ref_seconds,
            "vectorized_seconds": vec_seconds,
            "speedup": ref_seconds / vec_seconds,
            "bit_identical": True,
        }
    write_bench("BENCH_partition.json", "bfs_grow", payload)


def _unique_mirror_pairs(graph, assignment):
    """The sort-based push mirror table: ``edge_array()`` + ``np.unique``."""
    src, dst = graph.edge_array()
    p_src = assignment.parts[src]
    p_dst = assignment.parts[dst]
    cross = p_src != p_dst
    keys = np.unique(dst[cross] * np.int64(assignment.num_parts) + p_src[cross])
    return keys // assignment.num_parts, keys % assignment.num_parts


def _lexsort_symmetrized(graph):
    """The two-key ``np.lexsort`` closure ``symmetrized()`` used to build."""
    src, dst = graph.edge_array()
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src]).astype(np.int64)
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.logical_or(s[1:] != s[:-1], d[1:] != d[:-1], out=keep[1:])
    s, d = s[keep], d[keep]
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=graph.num_vertices), out=indptr[1:])
    return CSRGraph(indptr, d, validate=False)


def test_mirror_build():
    """Flag-pass mirror tables: equal to the ``np.unique`` oracle, timed against it.

    Each round builds for a fresh assignment object, as every simulator
    run does, so the cached per-edge source parts are paid inside the
    timed region.
    """
    payload = {}
    for label, tier in SCALES:
        graph = _graph(tier)
        parts = LDGStreamingPartitioner().partition(graph, NUM_PARTS, seed=SEED).parts

        def fresh():
            return PartitionAssignment(parts, NUM_PARTS)

        seconds, table = min_of(lambda: build_mirror_table(graph, fresh()))
        oracle_seconds, (vert, part) = min_of(
            lambda: _unique_mirror_pairs(graph, fresh())
        )
        np.testing.assert_array_equal(table.mirror_vertices, vert)
        np.testing.assert_array_equal(table.mirror_parts, part)
        payload[label] = {
            "dataset": f"{DATASET}/{tier}",
            "partitions": NUM_PARTS,
            "num_mirrors": int(table.num_mirrors),
            "seconds": seconds,
            "oracle_seconds": oracle_seconds,
            "speedup": oracle_seconds / seconds,
            "bit_identical": True,
        }
    write_bench("BENCH_partition.json", "mirror_build", payload)
    assert payload[SCALES[-1][0]]["num_mirrors"] > 0


def test_csr_build():
    """One-key ``symmetrized()``: equal to the ``np.lexsort`` oracle, timed against it.

    Each round symmetrizes a fresh view of the graph, so the cached
    closure never answers.
    """
    payload = {}
    for label, tier in SCALES:
        graph = _graph(tier)

        def fresh():
            return CSRGraph(graph.indptr, graph.indices, validate=False)

        seconds, closure = min_of(lambda: fresh().symmetrized())
        oracle_seconds, expected = min_of(lambda: _lexsort_symmetrized(fresh()))
        assert closure == expected
        payload[label] = {
            "dataset": f"{DATASET}/{tier}",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "closure_edges": closure.num_edges,
            "seconds": seconds,
            "oracle_seconds": oracle_seconds,
            "speedup": oracle_seconds / seconds,
            "bit_identical": True,
        }
    write_bench("BENCH_partition.json", "csr_build", payload)


def test_dataset_generation_cold_vs_warm(tmp_path):
    """Cached dataset loads against regeneration."""
    cache = ArtifactCache(tmp_path / "dscache")
    payload = {}
    for label, tier in SCALES:
        cold_seconds, graph = min_of(
            lambda: load_dataset(DATASET, tier=tier, seed=SEED)[0],
            rounds=2,
        )
        repro_cache.load_dataset_cached(
            DATASET, tier=tier, seed=SEED, cache=cache
        )
        warm_seconds, warm = min_of(
            lambda: repro_cache.load_dataset_cached(
                DATASET, tier=tier, seed=SEED, cache=cache
            )[0],
            rounds=3,
        )
        np.testing.assert_array_equal(warm.indices, graph.indices)
        payload[label] = {
            "dataset": f"{DATASET}/{tier}",
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds,
        }
    write_bench("BENCH_partition.json", "dataset_generation", payload)


def test_sweep_setup_cold_vs_warm(tmp_path, monkeypatch):
    """The full setup path (graph + ``prepare_trace``) through the cache.

    ``prepare_trace`` is where every run, compare and sweep task prepares
    its workload; with LDG and a cc kernel it reads the dataset, the
    symmetrized graph and the assignment from the cache and rebuilds the
    mirror table.  The warm/cold ratio is recorded at the largest scale.
    """
    tier = SCALES[-1][1]
    cache = ArtifactCache(tmp_path / "setupcache")
    monkeypatch.setattr(repro_cache, "_active", cache)

    def setup():
        graph, _ = repro_cache.load_dataset_cached(DATASET, tier=tier, seed=SEED)
        return prepare_trace(
            graph,
            ConnectedComponents(),
            num_parts=NUM_PARTS,
            partitioner=LDGStreamingPartitioner(),
            seed=SEED,
        )

    cold_start = time.perf_counter()
    cold = setup()
    cold_seconds = time.perf_counter() - cold_start

    warm_seconds, warm = min_of(setup, rounds=3)

    assert warm.graph.digest == cold.graph.digest
    np.testing.assert_array_equal(warm.assignment.parts, cold.assignment.parts)
    np.testing.assert_array_equal(
        warm.mirror_table.mirror_vertices, cold.mirror_table.mirror_vertices
    )
    np.testing.assert_array_equal(
        warm.mirror_table.mirror_parts, cold.mirror_table.mirror_parts
    )
    assert cache.counters["cache.dataset.hits"] >= 3
    assert cache.counters["cache.partition.hits"] >= 3
    assert cache.counters["cache.symmetrized.hits"] >= 3

    speedup = cold_seconds / warm_seconds
    write_bench(
        "BENCH_partition.json",
        "sweep_setup",
        {
            "dataset": f"{DATASET}/{tier}",
            "partitions": NUM_PARTS,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
        },
    )
