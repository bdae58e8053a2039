"""Fault injection across the four simulators: recovery accounting,
determinism, graceful degradation, and fault-free bit-identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.compare import compare_architectures
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.errors import RecoveryError
from repro.faults import (
    EveryKCheckpoint,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig

ARCHES = ("distributed", "distributed-ndp", "disaggregated", "disaggregated-ndp")


def _compare(graph, kernel_name="pagerank", **kwargs):
    return compare_architectures(
        graph,
        get_kernel(kernel_name),
        config=SystemConfig(num_compute_nodes=1, num_memory_nodes=4),
        max_iterations=8,
        graph_name="test",
        seed=3,
        **kwargs,
    )


class TestFaultFreePath:
    def test_none_and_empty_schedule_identical(self, lj_tiny):
        plain = _compare(lj_tiny)
        empty = _compare(lj_tiny, faults=FaultSchedule())
        for p, e in zip(plain.rows, empty.rows):
            assert p.run.iterations == e.run.iterations
            assert e.run.total_recovery_bytes == 0

    def test_new_stats_fields_default_clean(self, lj_tiny):
        for row in _compare(lj_tiny).rows:
            assert row.run.total_recovery_bytes == 0
            assert all(s.recovery_seconds == 0.0 for s in row.run.iterations)


class TestCrashRecovery:
    def test_all_architectures_pay_nonzero_recovery(self, lj_tiny):
        # Replication 1 rebuilds the shard; on the disaggregated deployments
        # both legs (host link and pool link) are recovery traffic.
        for replication in (1, 2):
            schedule = FaultSchedule.single_crash(
                iteration=2, part=1, replication_factor=replication
            )
            comparison = _compare(lj_tiny, faults=schedule)
            for row in comparison.rows:
                where = (row.architecture, replication)
                assert row.architecture in ARCHES
                assert row.run.total_recovery_bytes > 0, where
                assert (
                    row.run.ledger.recovery_bytes() == row.run.total_recovery_bytes
                ), where
                assert row.run.counters.get("fault-memory-crashes") == 1
                stats = row.run.iterations[2]
                assert stats.recovery_bytes > 0
                assert stats.recovery_seconds > 0.0
                assert stats.iteration_seconds > (
                    stats.traverse_seconds
                    + stats.movement_seconds
                    + stats.apply_seconds
                    + stats.sync_seconds
                )

    def test_recovery_is_deterministic(self, lj_tiny):
        schedule = FaultSchedule.single_crash(
            iteration=2, part=1, replication_factor=2
        )
        first = _compare(lj_tiny, faults=schedule)
        second = _compare(lj_tiny, faults=schedule)
        for a, b in zip(first.rows, second.rows):
            assert a.run.iterations == b.run.iterations
            assert a.run.ledger.breakdown() == b.run.ledger.breakdown()

    def test_rereplication_vs_rebuild_phases(self, lj_tiny):
        rebuild = _compare(
            lj_tiny,
            faults=FaultSchedule.single_crash(
                iteration=2, part=1, replication_factor=1
            ),
        )
        rerepl = _compare(
            lj_tiny,
            faults=FaultSchedule.single_crash(
                iteration=2, part=1, replication_factor=2
            ),
        )
        for row in rebuild.rows:
            assert "recovery-rebuild" in row.run.ledger.phases()
            assert row.run.counters.get("recovery-rebuilt-bytes") > 0
        for row in rerepl.rows:
            assert "recovery-rereplicate" in row.run.ledger.phases()
            assert row.run.counters.get("recovery-rereplicated-bytes") > 0

    def test_disaggregated_rereplicates_off_host_links(self, lj_tiny):
        """Pool-side re-replication must not consume host-link budget."""
        schedule = FaultSchedule.single_crash(
            iteration=2, part=1, replication_factor=2
        )
        comparison = _compare(lj_tiny, faults=schedule)
        clean = _compare(lj_tiny)
        disagg = comparison.row("disaggregated").run
        disagg_clean = clean.row("disaggregated").run
        assert disagg.total_host_link_bytes == disagg_clean.total_host_link_bytes
        assert disagg.total_network_bytes > disagg_clean.total_network_bytes
        dist = comparison.row("distributed").run
        dist_clean = clean.row("distributed").run
        assert dist.total_host_link_bytes > dist_clean.total_host_link_bytes

    def test_distributed_recovery_includes_mirror_resync(self, lj_tiny):
        schedule = FaultSchedule.single_crash(
            iteration=2, part=1, replication_factor=2
        )
        comparison = _compare(lj_tiny, faults=schedule)
        dist = comparison.row("distributed").run
        disagg = comparison.row("disaggregated").run
        # Same shard, but the distributed replacement node also restores its
        # mirror cache, so its recovery bill is strictly larger.
        assert dist.total_recovery_bytes > disagg.total_recovery_bytes

    def test_single_node_pool_cannot_rereplicate(self, lj_tiny):
        sim = DisaggregatedSimulator(
            SystemConfig(num_compute_nodes=1, num_memory_nodes=1)
        )
        with pytest.raises(RecoveryError):
            sim.run(
                lj_tiny,
                get_kernel("pagerank"),
                max_iterations=5,
                faults=FaultSchedule.single_crash(
                    iteration=1, part=0, replication_factor=2
                ),
            )


class TestNDPDeviceFailure:
    def _schedule(self, down=2):
        return FaultSchedule(
            events=(
                FaultEvent(
                    iteration=1,
                    kind=FaultKind.NDP_DEVICE_FAILURE,
                    part=0,
                    down_iterations=down,
                ),
            )
        )

    def test_disaggregated_ndp_falls_back_to_fetch(self, lj_tiny, config4):
        ndp_cfg = config4.with_options(enable_inc=True)
        run = DisaggregatedNDPSimulator(ndp_cfg).run(
            lj_tiny,
            get_kernel("pagerank"),
            max_iterations=6,
            faults=self._schedule(down=2),
        )
        assert run.counters.get("offload-denied-fault") >= 1
        # Iterations 1 and 2 lose one shard's offload; the rest are full.
        assert run.iterations[1].offloaded_parts == 3
        assert run.iterations[2].offloaded_parts == 3
        assert run.iterations[3].offloaded_parts == 4
        # The device outage adds no recovery traffic — just a different
        # (host-fetch) accounting for the affected shard.
        assert run.counters.get("fault-ndp-failures") == 1

    def test_distributed_ndp_escalates_to_crash(self, lj_tiny, config4):
        """No host fallback inside a GraphQ node: device failure = node loss."""
        run = DistributedNDPSimulator(config4).run(
            lj_tiny,
            get_kernel("pagerank"),
            max_iterations=6,
            faults=self._schedule(),
        )
        assert run.total_recovery_bytes > 0
        assert run.counters.get("fault-memory-crashes") == 1

    def test_plain_distributed_unaffected(self, lj_tiny, config4):
        """No NDP device to lose: the event only bumps the counter."""
        run = DistributedSimulator(config4).run(
            lj_tiny,
            get_kernel("pagerank"),
            max_iterations=6,
            faults=self._schedule(),
        )
        assert run.counters.get("fault-ndp-failures") == 1
        assert run.total_recovery_bytes == 0


class TestLinkDegradationAndDrops:
    def test_degradation_slows_only_its_window(self, lj_tiny, config4):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    iteration=2,
                    kind=FaultKind.LINK_DEGRADATION,
                    down_iterations=2,
                    bandwidth_scale=0.25,
                    extra_latency_s=50e-6,
                ),
            )
        )
        sim = DisaggregatedSimulator(config4)
        clean = sim.run(lj_tiny, get_kernel("pagerank"), max_iterations=8)
        slow = sim.run(
            lj_tiny, get_kernel("pagerank"), max_iterations=8, faults=schedule
        )
        for i, (c, s) in enumerate(zip(clean.iterations, slow.iterations)):
            assert c.host_link_bytes == s.host_link_bytes  # bytes unchanged
            if i in (2, 3):
                assert s.movement_seconds > c.movement_seconds
            else:
                assert s.movement_seconds == c.movement_seconds

    def test_message_drop_retransmits(self, lj_tiny, config4):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    iteration=1,
                    kind=FaultKind.MESSAGE_DROP,
                    drop_fraction=0.5,
                ),
            )
        )
        sim = DisaggregatedSimulator(config4)
        clean = sim.run(lj_tiny, get_kernel("pagerank"), max_iterations=5)
        lossy = sim.run(
            lj_tiny, get_kernel("pagerank"), max_iterations=5, faults=schedule
        )
        expected = int(np.ceil(0.5 * clean.iterations[1].host_link_bytes))
        stats = lossy.iterations[1]
        assert stats.recovery_bytes == expected
        assert stats.host_link_bytes == (
            clean.iterations[1].host_link_bytes + expected
        )
        assert lossy.counters.get("recovery-retransmitted-bytes") == expected
        assert "recovery-retransmit" in lossy.ledger.phases()


class TestCheckpointing:
    def test_every_k_charges_state_snapshots(self, lj_tiny, config4):
        kernel = get_kernel("pagerank")
        sim = DisaggregatedSimulator(config4)
        run = sim.run(
            lj_tiny,
            kernel,
            max_iterations=6,
            checkpoint=EveryKCheckpoint(k=2),
        )
        state_bytes = kernel.prop_push_bytes * lj_tiny.num_vertices
        assert run.counters.get("checkpoint-count") == 3
        assert run.counters.get("checkpoint-bytes") == 3 * state_bytes
        assert run.iterations[1].recovery_bytes == state_bytes
        assert run.iterations[0].recovery_bytes == 0
        assert "checkpoint" in run.ledger.phases()
        assert run.ledger.recovery_bytes() == 3 * state_bytes

    def test_checkpoint_without_faults_leaves_numerics_alone(
        self, lj_tiny, config4
    ):
        kernel = get_kernel("pagerank")
        sim = DisaggregatedSimulator(config4)
        plain = sim.run(lj_tiny, kernel, max_iterations=6)
        ckpt = sim.run(
            lj_tiny, kernel, max_iterations=6, checkpoint=EveryKCheckpoint(k=2)
        )
        np.testing.assert_array_equal(
            plain.result_property(), ckpt.result_property()
        )


class TestSpecDrivenComparison:
    def test_spec_accepted_directly_and_deterministic(self, lj_tiny):
        spec = FaultSpec(
            seed=13,
            horizon=8,
            num_parts=4,
            memory_crash_prob=0.2,
            ndp_failure_prob=0.2,
            link_degradation_prob=0.2,
            message_drop_prob=0.3,
            replication_factor=2,
        )
        first = _compare(lj_tiny, faults=spec)
        second = _compare(lj_tiny, faults=spec)
        assert any(r.run.total_recovery_bytes > 0 for r in first.rows)
        for a, b in zip(first.rows, second.rows):
            assert a.run.iterations == b.run.iterations
            assert a.run.counters.as_dict() == b.run.counters.as_dict()

    def test_numerics_identical_under_faults(self, lj_tiny):
        spec = FaultSpec(
            seed=13,
            horizon=8,
            num_parts=4,
            memory_crash_prob=0.3,
            message_drop_prob=0.3,
            replication_factor=2,
        )
        clean = _compare(lj_tiny)
        faulty = _compare(lj_tiny, faults=spec)
        np.testing.assert_array_equal(
            clean.rows[0].run.result_property(),
            faulty.rows[0].run.result_property(),
        )
