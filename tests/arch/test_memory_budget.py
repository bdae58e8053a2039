"""Blocked edge streaming under a memory budget.

The contract: a ``memory_budget_bytes`` cap changes *how* the engine walks
edges (CSR-ordered blocks instead of one materialized gather) but never
*what* it computes — profiles, ledgers, and property arrays are bit-identical
with and without the budget.  Telemetry records what streaming happened.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.engine import (
    EngineTelemetry,
    execute_iteration,
    frontier_structure,
    prepare_graph,
)
from repro.arch.trace import record_trace
from repro.errors import ConfigError
from repro.graph.generators import rmat
from repro.kernels.registry import get_kernel, list_kernels
from repro.partition.random_hash import HashPartitioner
from repro.runtime.config import SystemConfig
from repro.utils.units import GiB, parse_bytes

ENGINE_KERNELS = sorted(
    name for name in list_kernels() if get_kernel(name).supports_engine
)

TIGHT_BUDGET = 64 * 1024  # forces multi-block streaming on rmat(9+)


def profiles_identical(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.iteration == pb.iteration
        assert pa.frontier_size == pb.frontier_size
        assert pa.edges_traversed == pb.edges_traversed
        for name in (
            "touched",
            "changed",
            "frontier_per_part",
            "edges_per_part",
            "pair_dst",
            "pair_part",
            "partials_per_part",
            "updates_per_destination",
        ):
            va, vb = getattr(pa, name), getattr(pb, name)
            assert va.dtype == vb.dtype, name
            np.testing.assert_array_equal(va, vb, err_msg=name)


class TestStreamedStructure:
    def test_budget_triggers_streaming(self):
        # 2^12 vertices x 16 edges each: enough edges that the minimum
        # block size still yields several blocks under a tight budget.
        graph = rmat(12, 16, seed=1)
        assignment = HashPartitioner().partition(graph, 4, seed=0)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        telemetry = EngineTelemetry()
        structure = frontier_structure(
            graph,
            frontier,
            assignment,
            memory_budget_bytes=TIGHT_BUDGET,
            telemetry=telemetry,
        )
        assert structure.streamed
        assert structure.num_blocks > 1
        assert structure.src is None and structure.dst is None

    def test_no_budget_never_streams(self):
        graph = rmat(9, 6, seed=2)
        assignment = HashPartitioner().partition(graph, 4, seed=0)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        structure = frontier_structure(graph, frontier, assignment)
        assert not structure.streamed
        assert structure.num_blocks == 1

    def test_generous_budget_never_streams(self):
        graph = rmat(9, 6, seed=2)
        assignment = HashPartitioner().partition(graph, 4, seed=0)
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        structure = frontier_structure(
            graph, frontier, assignment, memory_budget_bytes=GiB
        )
        assert not structure.streamed

    @pytest.mark.parametrize("seed", range(4))
    def test_streamed_structure_bit_identical(self, seed):
        graph = rmat(10, 7, seed=seed)
        assignment = HashPartitioner().partition(graph, 5, seed=seed)
        rng = np.random.default_rng(seed)
        frontiers = [
            np.arange(graph.num_vertices, dtype=np.int64),
            np.sort(
                rng.choice(
                    graph.num_vertices, size=graph.num_vertices // 2, replace=False
                )
            ).astype(np.int64),
        ]
        for frontier in frontiers:
            plain = frontier_structure(graph, frontier, assignment)
            streamed = frontier_structure(
                graph, frontier, assignment, memory_budget_bytes=TIGHT_BUDGET
            )
            assert streamed.streamed
            for name in (
                "touched",
                "frontier_per_part",
                "edges_per_part",
                "pair_dst",
                "pair_part",
                "partials_per_part",
                "updates_per_destination",
            ):
                va, vb = getattr(plain, name), getattr(streamed, name)
                assert va.dtype == vb.dtype, name
                np.testing.assert_array_equal(va, vb, err_msg=name)
            assert plain.edges_traversed == streamed.edges_traversed


class TestBudgetedExecution:
    @pytest.mark.parametrize("kernel_name", ENGINE_KERNELS)
    def test_budgeted_trace_identical(self, kernel_name):
        kernel = get_kernel(kernel_name)
        graph = rmat(9, 6, seed=7, weighted=True)
        prepared = prepare_graph(graph, kernel)
        assignment = HashPartitioner().partition(prepared, 4, seed=1)
        source = (
            int(prepared.out_degrees.argmax()) if kernel.needs_source else None
        )
        kwargs = dict(
            assignment=assignment,
            source=source,
            max_iterations=8,
            with_mirrors=False,
        )
        plain = record_trace(prepared, kernel, **kwargs)
        # A 1-byte budget forces streaming on every iteration that
        # traverses any edges at all, regardless of frontier shape.
        budgeted = record_trace(
            prepared, kernel, memory_budget_bytes=1, **kwargs
        )
        profiles_identical(plain.profiles, budgeted.profiles)
        for prop in plain.final_state.props:
            np.testing.assert_array_equal(
                plain.final_state.props[prop],
                budgeted.final_state.props[prop],
                err_msg=prop,
            )
        assert plain.converged == budgeted.converged
        expect_streamed = sum(
            1 for p in plain.profiles if p.edges_traversed > 0
        )
        assert budgeted.streamed_iterations == expect_streamed
        assert budgeted.edge_blocks >= budgeted.streamed_iterations
        assert plain.streamed_iterations == 0
        assert plain.edge_blocks == 0

    @pytest.mark.parametrize("kernel_name", ("pagerank", "bfs", "sssp"))
    def test_tight_budget_matches_unstreamed(self, kernel_name):
        # Streaming under a realistic budget on a larger graph, rather
        # than under the 1-byte budget above.
        graph = rmat(12, 16, seed=11)
        kernel = get_kernel(kernel_name)
        source = int(graph.out_degrees.argmax()) if kernel.needs_source else None

        def record(budget):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return record_trace(
                    graph,
                    kernel,
                    num_parts=8,
                    source=source,
                    max_iterations=5,
                    seed=3,
                    with_mirrors=False,
                    memory_budget_bytes=budget,
                )

        streamed = record(TIGHT_BUDGET)
        unstreamed = record(None)
        assert streamed.streamed_iterations > 0
        assert streamed.edge_blocks >= streamed.streamed_iterations
        assert unstreamed.streamed_iterations == 0
        assert streamed.num_iterations == unstreamed.num_iterations
        np.testing.assert_array_equal(
            kernel.result(streamed.final_state),
            kernel.result(unstreamed.final_state),
        )
        for sp, up in zip(streamed.profiles, unstreamed.profiles):
            assert sp.edges_traversed == up.edges_traversed
            np.testing.assert_array_equal(sp.touched, up.touched)
            np.testing.assert_array_equal(sp.changed, up.changed)
            np.testing.assert_array_equal(sp.pair_dst, up.pair_dst)
            np.testing.assert_array_equal(sp.pair_part, up.pair_part)

    def test_streamed_structure_reusable_from_cache(self):
        # A cached streamed structure must re-stream correctly on replay
        # (PageRank presents the same all-vertex frontier every iteration).
        kernel = get_kernel("pagerank")
        graph = prepare_graph(rmat(9, 6, seed=3), kernel)
        assignment = HashPartitioner().partition(graph, 4, seed=0)
        plain = record_trace(
            graph, kernel, assignment=assignment, max_iterations=6,
            with_mirrors=False,
        )
        budgeted = record_trace(
            graph, kernel, assignment=assignment, max_iterations=6,
            with_mirrors=False, memory_budget_bytes=TIGHT_BUDGET,
        )
        assert budgeted.cache_hits == plain.cache_hits > 0
        profiles_identical(plain.profiles, budgeted.profiles)
        np.testing.assert_array_equal(
            plain.final_state.props["rank"], budgeted.final_state.props["rank"]
        )

    def test_run_results_identical_and_telemetry_counted(self):
        kernel = get_kernel("pagerank")
        graph = rmat(9, 6, seed=5)
        plain_cfg = SystemConfig(num_memory_nodes=4)
        tight_cfg = SystemConfig(
            num_memory_nodes=4, memory_budget_bytes=TIGHT_BUDGET
        )
        runs = {}
        for label, cfg in (("plain", plain_cfg), ("tight", tight_cfg)):
            runs[label] = DisaggregatedNDPSimulator(cfg).run(
                graph, kernel, max_iterations=6, seed=0
            )
        a, b = runs["plain"], runs["tight"]
        assert a.ledger.breakdown() == b.ledger.breakdown()
        np.testing.assert_array_equal(a.result_property(), b.result_property())
        assert b.counters["engine-streamed-iterations"] > 0
        assert b.counters["engine-edge-blocks"] > 0
        assert b.counters["engine-peak-tracked-bytes"] > 0
        assert a.counters["engine-streamed-iterations"] == 0
        assert a.counters["engine-edge-blocks"] == 0

    def test_peak_tracked_bytes_bounded_under_budget(self):
        # With a workable budget the engine's tracked transients must stay
        # at the same order as the budget, far below the unbudgeted gather.
        kernel = get_kernel("pagerank")
        graph = rmat(12, 16, seed=1)
        budget = 1 << 20  # 1 MiB; the full gather needs several MiB
        telemetry = EngineTelemetry()
        prepared = prepare_graph(graph, kernel)
        assignment = HashPartitioner().partition(prepared, 4, seed=0)
        state = kernel.initial_state(prepared)
        execute_iteration(
            kernel,
            state,
            assignment,
            memory_budget_bytes=budget,
            telemetry=telemetry,
        )
        assert telemetry.streamed_iterations == 1
        # Per-edge transients obey the budget; the O(V) scratch/frontier
        # floor is inherent and excluded from the per-edge accounting.
        assert telemetry.peak_tracked_bytes < 8 * budget


class TestBudgetPlumbing:
    def test_config_validates_budget(self):
        with pytest.raises(ConfigError):
            SystemConfig(memory_budget_bytes=0)
        with pytest.raises(ConfigError):
            SystemConfig(memory_budget_bytes=-5)
        assert SystemConfig(memory_budget_bytes=1).memory_budget_bytes == 1
        assert SystemConfig().memory_budget_bytes is None

    def test_cli_style_units_parse(self):
        assert parse_bytes("8G") == 8 * GiB
        assert parse_bytes("512MiB") == 512 * 1024 * 1024
        assert parse_bytes("2k") == 2048

    def test_repro_run_accepts_memory_budget(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--dataset",
                "livejournal-sim",
                "--kernel",
                "pagerank",
                "--tier",
                "tiny",
                "--memory-budget",
                "64K",
                "--max-iterations",
                "3",
                "--quiet",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine streaming:" in out

    def test_sweep_task_budget_keeps_results(self):
        from repro.experiments.sweep import SweepTask, _execute_task

        graph = rmat(8, 6, seed=4)
        plain = _execute_task(
            SweepTask("livejournal-sim", "pagerank", 4, max_iterations=5),
            graph,
            "g",
        )
        tight = _execute_task(
            SweepTask(
                "livejournal-sim",
                "pagerank",
                4,
                max_iterations=5,
                memory_budget_bytes=TIGHT_BUDGET,
            ),
            graph,
            "g",
        )
        assert plain.result_sha256 == tight.result_sha256
        assert plain.ledger_sha256 == tight.ledger_sha256
