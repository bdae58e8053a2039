"""Cross-architecture consistency: the four simulators are accounting
veneers over one engine, so every kernel must produce bit-identical results
on all of them, matching the host references."""

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.registry import get_architecture, list_architectures
from repro.errors import ConfigError, SimulationError
from repro.kernels.bfs import BFS
from repro.kernels.cc import ConnectedComponents
from repro.kernels.pagerank import PageRank
from repro.kernels.sssp import SSSP
from repro.partition.metis import MetisPartitioner
from repro.runtime.config import SystemConfig
from support import kernel_reference as reference

ALL_SIMS = (
    DistributedSimulator,
    DistributedNDPSimulator,
    DisaggregatedSimulator,
    DisaggregatedNDPSimulator,
)


def run_all(graph, kernel_factory, config, **kwargs):
    return [
        cls(config).run(graph, kernel_factory(), **kwargs) for cls in ALL_SIMS
    ]


class TestNumericalConsistency:
    def test_pagerank_identical_everywhere(self, tiny_rmat, config4):
        runs = run_all(tiny_rmat, lambda: PageRank(max_iterations=10), config4)
        expected = reference.pagerank(tiny_rmat, max_iterations=10)
        for run in runs:
            assert np.allclose(run.result_property(), expected), run.architecture

    def test_bfs_identical_everywhere(self, tiny_rmat, config4):
        src = int(tiny_rmat.out_degrees.argmax())
        runs = run_all(tiny_rmat, BFS, config4, source=src)
        expected = reference.bfs(tiny_rmat, src)
        for run in runs:
            assert np.array_equal(run.result_property(), expected), run.architecture

    def test_sssp_identical_everywhere(self, weighted_er, config4):
        runs = run_all(weighted_er, SSSP, config4, source=0)
        expected = reference.sssp(weighted_er, 0)
        for run in runs:
            assert reference.compare_distances(
                run.result_property(), expected
            ), run.architecture

    def test_cc_identical_everywhere(self, tiny_rmat, config4):
        runs = run_all(tiny_rmat, ConnectedComponents, config4)
        expected = reference.connected_components(tiny_rmat)
        for run in runs:
            assert np.array_equal(run.result_property(), expected), run.architecture

    def test_results_partition_invariant(self, tiny_rmat, config8):
        # The numeric answer must not depend on the partitioner.
        from repro.partition import HashPartitioner, RangePartitioner

        kernel = lambda: PageRank(max_iterations=8)  # noqa: E731
        sim = DisaggregatedNDPSimulator(config8)
        by_hash = sim.run(tiny_rmat, kernel(), partitioner=HashPartitioner())
        by_range = sim.run(tiny_rmat, kernel(), partitioner=RangePartitioner())
        by_metis = sim.run(
            tiny_rmat, kernel(), partitioner=MetisPartitioner(), seed=3
        )
        assert np.allclose(by_hash.result_property(), by_range.result_property())
        assert np.allclose(by_hash.result_property(), by_metis.result_property())

    def test_iteration_counts_agree(self, tiny_rmat, config4):
        runs = run_all(tiny_rmat, lambda: PageRank(max_iterations=10), config4)
        counts = {r.num_iterations for r in runs}
        assert len(counts) == 1


class TestRunHarness:
    def test_registry_round_trip(self):
        for name in list_architectures():
            sim = get_architecture(name)
            assert sim.name == name

    def test_registry_unknown(self):
        with pytest.raises(ConfigError):
            get_architecture("quantum")

    def test_registry_order_matches_table2(self):
        assert list_architectures() == (
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        )

    def test_max_iterations_cap(self, tiny_rmat, config4):
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=100, tolerance=0.0),
            max_iterations=3,
        )
        assert run.num_iterations == 3
        assert not run.converged

    def test_assignment_size_checked(self, tiny_rmat, config4):
        import numpy as np

        from repro.partition.base import PartitionAssignment

        bad = PartitionAssignment(np.zeros(5, dtype=np.int64), 4)
        with pytest.raises(SimulationError):
            DisaggregatedSimulator(config4).run(
                tiny_rmat, PageRank(), assignment=bad
            )

    def test_assignment_parts_checked(self, tiny_rmat, config4):
        import numpy as np

        from repro.partition.base import PartitionAssignment

        bad = PartitionAssignment(
            np.zeros(tiny_rmat.num_vertices, dtype=np.int64), 2
        )
        with pytest.raises(SimulationError, match="parts"):
            DisaggregatedSimulator(config4).run(
                tiny_rmat, PageRank(), assignment=bad
            )

    def test_symmetrizing_kernel_with_explicit_assignment(self, tiny_rmat, config4):
        # CC symmetrizes but keeps the vertex count, so a caller-provided
        # assignment over the original vertices still applies.
        import numpy as np

        from repro.partition.base import PartitionAssignment

        a = PartitionAssignment(
            np.arange(tiny_rmat.num_vertices, dtype=np.int64) % 4, 4
        )
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, ConnectedComponents(), assignment=a
        )
        assert run.converged

    def test_ndp_arch_requires_ndp_device(self):
        with pytest.raises(ConfigError):
            DisaggregatedNDPSimulator(SystemConfig(ndp_device=None))
        with pytest.raises(ConfigError):
            DistributedNDPSimulator(SystemConfig(ndp_device=None))

    def test_distributed_ndp_capability_gate(self, tiny_rmat):
        from repro.errors import CapabilityError
        from repro.hardware.catalog import UPMEM_PIM

        cfg = SystemConfig(num_memory_nodes=2, ndp_device=UPMEM_PIM)
        sim = DistributedNDPSimulator(cfg)
        with pytest.raises(CapabilityError):
            sim.run(tiny_rmat, PageRank())  # FP kernel on FP-less PIM

    def test_upmem_runs_integer_kernels(self, tiny_rmat):
        from repro.hardware.catalog import UPMEM_PIM

        cfg = SystemConfig(num_memory_nodes=2, ndp_device=UPMEM_PIM)
        run = DistributedNDPSimulator(cfg).run(tiny_rmat, ConnectedComponents())
        assert run.converged

    def test_disaggregated_ndp_capability_fallback(self, tiny_rmat):
        # Disaggregated NDP falls back to fetch when the device can't run
        # the kernel (hosts still exist), recording the denial.
        from repro.hardware.catalog import UPMEM_PIM

        cfg = SystemConfig(num_memory_nodes=2, ndp_device=UPMEM_PIM)
        run = DisaggregatedNDPSimulator(cfg).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        assert not any(s.offloaded for s in run.iterations)
        assert run.counters["offload-denied-capability"] > 0

    def test_run_result_metadata(self, tiny_rmat, config4):
        run = DisaggregatedSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=2), graph_name="g",
            max_iterations=2,
        )
        assert run.architecture == "disaggregated"
        assert run.kernel == "pagerank"
        assert run.graph_name == "g"
        assert run.num_parts == 4
        # title, header and rule, then one row per iteration
        assert len(run.summary_table().render().splitlines()) == run.num_iterations + 3

    def test_timing_fields_positive(self, tiny_rmat, config4):
        run = DisaggregatedNDPSimulator(config4).run(
            tiny_rmat, PageRank(max_iterations=2), max_iterations=2
        )
        for s in run.iterations:
            assert s.traverse_seconds > 0
            assert s.movement_seconds > 0
            assert s.apply_seconds > 0
            assert s.iteration_seconds == pytest.approx(
                s.traverse_seconds
                + s.movement_seconds
                + s.apply_seconds
                + s.sync_seconds
            )
