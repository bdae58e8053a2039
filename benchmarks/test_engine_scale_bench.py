"""Engine scaling benchmark: iterations/second and peak tracked bytes vs
graph scale, across both CSR index widths and with the memory budget on
and off (``benchmarks/out/BENCH_scale.json``).

Every cell runs the same PageRank workload; the invariant asserted
throughout is that neither the index width nor the budget changes a single
result bit — only the footprint and the wall clock move.

Set ``REPRO_BENCH_SCALE25=1`` to additionally run the paper-scale
acceptance point: a scale-25 RMAT PageRank under an 8 GiB budget, with the
engine's peak tracked transients required to stay under the budget.
"""

import hashlib
import os
import time

import numpy as np
import pytest
from conftest import write_bench

from repro.arch.engine import EngineTelemetry, execute_iteration, prepare_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.kernels.pagerank import PageRank
from repro.partition.random_hash import HashPartitioner
from repro.utils.units import GiB, MiB

SCALES = (14, 16, 18)
EDGE_FACTOR = 16
ITERATIONS = 3
PARTS = 16
BUDGET = 4 * MiB  # small enough that every SCALES entry streams


def _widen(graph: CSRGraph) -> CSRGraph:
    return CSRGraph(
        graph.indptr,
        graph.indices.astype(np.int64),
        graph.weights,
        validate=False,
        index_dtype=np.dtype(np.int64),
    )


def _run_cell(graph, budget):
    """Time ITERATIONS PageRank iterations; return (metrics, rank digest)."""
    kernel = PageRank()
    prepared = prepare_graph(graph, kernel)
    assignment = HashPartitioner().partition(prepared, PARTS, seed=7)
    telemetry = EngineTelemetry()
    state = kernel.initial_state(prepared)
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        execute_iteration(
            kernel,
            state,
            assignment,
            memory_budget_bytes=budget,
            telemetry=telemetry,
        )
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(
        np.ascontiguousarray(state.props["rank"]).tobytes()
    ).hexdigest()
    return {
        "iterations": ITERATIONS,
        "seconds": elapsed,
        "iterations_per_second": ITERATIONS / elapsed,
        "peak_tracked_bytes": telemetry.peak_tracked_bytes,
        "edge_blocks": telemetry.edge_blocks,
        "streamed_iterations": telemetry.streamed_iterations,
    }, digest


def test_engine_scale_sweep():
    data = {
        "edge_factor": EDGE_FACTOR,
        "partitions": PARTS,
        "budget_bytes": BUDGET,
        "cells": [],
    }
    for scale in SCALES:
        narrow = rmat(scale, EDGE_FACTOR, seed=7)
        assert narrow.index_dtype == np.dtype(np.uint32)
        wide = _widen(narrow)
        digests = set()
        for dtype_label, graph in (("uint32", narrow), ("int64", wide)):
            for budget in (None, BUDGET):
                metrics, digest = _run_cell(graph, budget)
                digests.add(digest)
                if budget is not None:
                    assert metrics["streamed_iterations"] == ITERATIONS
                else:
                    assert metrics["streamed_iterations"] == 0
                data["cells"].append(
                    {
                        "scale": scale,
                        "vertices": int(graph.num_vertices),
                        "edges": int(graph.num_edges),
                        "index_dtype": dtype_label,
                        "csr_bytes": int(graph.memory_footprint_bytes()),
                        "budgeted": budget is not None,
                        **metrics,
                    }
                )
        # One workload, four configurations, one answer.
        assert len(digests) == 1, f"scale {scale}: results diverged"

    # The narrow index must shrink the resident CSR, and the budget must
    # shrink the engine's peak transients.
    def cell(scale, dtype, budgeted, key):
        for entry in data["cells"]:
            if (
                entry["scale"] == scale
                and entry["index_dtype"] == dtype
                and entry["budgeted"] == budgeted
            ):
                return entry[key]
        raise AssertionError("cell missing")

    for scale in SCALES:
        assert cell(scale, "uint32", False, "csr_bytes") < cell(
            scale, "int64", False, "csr_bytes"
        )
        assert cell(scale, "uint32", True, "peak_tracked_bytes") < cell(
            scale, "uint32", False, "peak_tracked_bytes"
        )

    write_bench("BENCH_scale.json", "scale_sweep", data)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE25") != "1",
    reason="paper-scale acceptance run; set REPRO_BENCH_SCALE25=1",
)
def test_scale25_pagerank_under_8g_budget():
    """Acceptance: scale-25 RMAT PageRank under an 8 GiB engine budget.

    At EDGE_FACTOR 16 the deduped edge set (~520M edges) carries ~16 GiB
    of unblocked per-iteration transients — ~2x the budget — so blocked
    streaming must engage for the run to stay under it.
    """
    budget = 8 * GiB
    graph = rmat(25, EDGE_FACTOR, seed=7)
    assert graph.index_dtype == np.dtype(np.uint32)
    metrics, digest = _run_cell(graph, budget)
    assert metrics["streamed_iterations"] == ITERATIONS
    assert metrics["peak_tracked_bytes"] < budget

    write_bench(
        "BENCH_scale.json",
        "scale25_acceptance",
        {
            "scale": 25,
            "edge_factor": EDGE_FACTOR,
            "vertices": int(graph.num_vertices),
            "edges": int(graph.num_edges),
            "index_dtype": "uint32",
            "budget_bytes": budget,
            "rank_sha256": digest,
            **metrics,
        },
    )
