"""Execute-once/account-four-ways: replayed traces must be bit-identical
to independent runs, and the kernel numerics must execute exactly once."""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.arch.base import ArchitectureSimulator
from repro.arch.compare import compare_architectures
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.engine import (
    numeric_execution_count,
    reset_numeric_execution_count,
)
from repro.arch.results import result_sha256
from repro.arch.trace import record_trace
from repro.errors import CapabilityError, SimulationError
from repro.faults.checkpoint import EveryKCheckpoint
from repro.faults.schedule import FaultSpec
from repro.hardware.catalog import UPMEM_PIM
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.runtime.offload import get_policy

KERNELS = ("pagerank", "cc", "sssp", "bfs")
#: inputs on which replay must match run: fault-free, faults with
#: replication plus a checkpoint, a budget that forces edge streaming, and
#: a per-part offload policy
CASES = ("fault-free", "faults+checkpoint", "streaming", "per-part")
STREAMING_BUDGET = 16 * 1024


def _simulators(cfg: SystemConfig, policy: Optional[str] = None):
    ndp_cfg = cfg if cfg.enable_inc else cfg.with_options(enable_inc=True)
    ndp_kwargs = {} if policy is None else {"policy": get_policy(policy)}
    return [
        DistributedSimulator(cfg),
        DistributedNDPSimulator(cfg),
        DisaggregatedSimulator(cfg),
        DisaggregatedNDPSimulator(ndp_cfg, **ndp_kwargs),
    ]


def _source_for(kernel, graph):
    return int(graph.out_degrees.argmax()) if kernel.needs_source else None


@pytest.mark.parametrize("kernel_name", KERNELS)
class TestReplayMatchesIndependentRuns:
    """One shared trace through ``replay`` == four fresh ``run`` calls."""

    @staticmethod
    def _run_and_replay(kernel, case, graph, config4):
        """Four fresh ``run`` results and four replays of one trace."""
        source = _source_for(kernel, graph)
        cfg = (
            config4.with_options(memory_budget_bytes=STREAMING_BUDGET)
            if case == "streaming"
            else config4
        )
        policy = "per-part" if case == "per-part" else None

        def accounting():
            # A fresh checkpoint policy per pass: policies carry state.
            if case != "faults+checkpoint":
                return {}
            return {
                "faults": FaultSpec.standard(
                    seed=3,
                    num_parts=cfg.num_memory_nodes,
                    replication_factor=2,
                    horizon=10,
                ),
                "checkpoint": EveryKCheckpoint(3),
            }

        independent = [
            sim.run(
                graph,
                kernel,
                source=source,
                max_iterations=10,
                graph_name="lj",
                seed=3,
                **accounting(),
            )
            for sim in _simulators(cfg, policy)
        ]
        trace = record_trace(
            graph,
            kernel,
            num_parts=cfg.num_memory_nodes,
            source=source,
            max_iterations=10,
            graph_name="lj",
            seed=3,
            memory_budget_bytes=cfg.memory_budget_bytes,
        )
        replayed = [
            sim.replay(trace, **accounting())
            for sim in _simulators(cfg, policy)
        ]
        if case == "faults+checkpoint":
            assert all(r.total_recovery_bytes for r in independent)
        if case == "streaming":
            assert trace.streamed_iterations > 0
        return independent, replayed

    def test_bit_identical(self, kernel_name, lj_tiny, config4):
        kernel = get_kernel(kernel_name)
        for case in CASES:
            independent, replayed = self._run_and_replay(
                kernel, case, lj_tiny, config4
            )
            for ind, rep in zip(independent, replayed):
                assert rep.architecture == ind.architecture, case
                assert rep.converged == ind.converged, case
                # Per-iteration movement and timing, field for field.
                assert rep.iterations == ind.iterations, case
                assert rep.total_host_link_bytes == ind.total_host_link_bytes, case
                assert rep.total_network_bytes == ind.total_network_bytes, case
                assert rep.total_sync_seconds == ind.total_sync_seconds, case
                # Kernel output arrays must match bitwise.
                np.testing.assert_array_equal(
                    rep.result_property(), ind.result_property(), err_msg=case
                )

    def test_final_state_is_shared(self, kernel_name, lj_tiny, config4):
        kernel = get_kernel(kernel_name)
        trace = record_trace(
            lj_tiny,
            kernel,
            num_parts=config4.num_memory_nodes,
            source=_source_for(kernel, lj_tiny),
            max_iterations=5,
        )
        replayed = [sim.replay(trace) for sim in _simulators(config4)]
        assert all(r.final_state is trace.final_state for r in replayed)


class TestPoliciesNeverTouchNumerics:
    """Offload policies move *work placement*, never the kernel math: every
    registered policy must replay a shared trace to bit-identical results."""

    @pytest.mark.parametrize("kernel_name", ("pagerank", "sssp"))
    def test_bit_identical_under_every_policy(
        self, kernel_name, lj_tiny, config4
    ):
        from repro.runtime.offload import get_policy, list_policies

        kernel = get_kernel(kernel_name)
        trace = record_trace(
            lj_tiny,
            kernel,
            num_parts=config4.num_memory_nodes,
            source=_source_for(kernel, lj_tiny),
            max_iterations=8,
            graph_name="lj",
            seed=3,
        )
        ndp_cfg = config4.with_options(enable_inc=True)
        baseline = DisaggregatedNDPSimulator(ndp_cfg).replay(trace)
        for name in list_policies():
            run = DisaggregatedNDPSimulator(
                ndp_cfg, policy=get_policy(name)
            ).replay(trace)
            assert run.num_iterations == baseline.num_iterations, name
            assert run.converged == baseline.converged, name
            assert run.final_state is trace.final_state, name
            np.testing.assert_array_equal(
                run.result_property(), baseline.result_property(), err_msg=name
            )


class TestExecuteOnce:
    def test_compare_runs_numerics_once(self, lj_tiny):
        kernel = get_kernel("pagerank")
        reset_numeric_execution_count()
        comparison = compare_architectures(
            lj_tiny, kernel, max_iterations=6, graph_name="lj"
        )
        assert comparison.trace is not None
        # One numeric execution per iteration — not one per architecture.
        assert numeric_execution_count() == comparison.trace.num_iterations
        assert len(comparison.rows) == 4

    def test_compare_rows_equal_separate_runs(self, lj_tiny):
        kernel = get_kernel("cc")
        comparison = compare_architectures(lj_tiny, kernel, max_iterations=8)
        for row, sim in zip(comparison.rows, _simulators(SystemConfig())):
            reset_numeric_execution_count()
            run = sim.run(lj_tiny, kernel, max_iterations=8)
            # run streams the engine loop into accounting: one numeric
            # execution per iteration, none kept for a second pass.
            assert numeric_execution_count() == run.num_iterations
            assert row.architecture == run.architecture
            assert row.run.iterations == run.iterations
            assert row.run.ledger.breakdown() == run.ledger.breakdown()
            assert result_sha256(row.run.result_property()) == result_sha256(
                run.result_property()
            )


class TestCapabilityDenial:
    """PIM units without floating point cannot run PageRank, and
    distributed-NDP has no host fallback: every entry point refuses."""

    def test_every_entry_point_refuses(self, lj_tiny):
        cfg = SystemConfig(num_memory_nodes=4, ndp_device=UPMEM_PIM)
        kernel = get_kernel("pagerank")
        sim = DistributedNDPSimulator(cfg)
        reset_numeric_execution_count()
        with pytest.raises(CapabilityError):
            sim.run(lj_tiny, kernel, max_iterations=4)
        assert numeric_execution_count() == 0

        trace = record_trace(lj_tiny, kernel, num_parts=4, max_iterations=4)
        with pytest.raises(CapabilityError):
            sim.replay(trace)
        with pytest.raises(CapabilityError):
            compare_architectures(lj_tiny, kernel, config=cfg, max_iterations=4)


class TestReplayValidation:
    def test_partition_count_mismatch(self, lj_tiny, config4, config8):
        trace = record_trace(
            lj_tiny,
            get_kernel("pagerank"),
            num_parts=config4.num_memory_nodes,
            max_iterations=2,
        )
        with pytest.raises(SimulationError, match="parts"):
            DisaggregatedSimulator(config8).replay(trace)

    def test_mirrorless_trace_rejected_by_distributed(self, lj_tiny, config4):
        trace = record_trace(
            lj_tiny,
            get_kernel("pagerank"),
            num_parts=config4.num_memory_nodes,
            max_iterations=2,
            with_mirrors=False,
        )
        with pytest.raises(SimulationError, match="mirror"):
            DistributedSimulator(config4).replay(trace)

    def test_mirrorless_trace_fine_for_disaggregated(self, lj_tiny, config4):
        trace = record_trace(
            lj_tiny,
            get_kernel("pagerank"),
            num_parts=config4.num_memory_nodes,
            max_iterations=2,
            with_mirrors=False,
        )
        run = DisaggregatedSimulator(config4).replay(trace)
        assert run.num_iterations == trace.num_iterations
