"""Unit tests for checkpoint policies and the per-run fault runtime."""

import numpy as np
import pytest

from repro.errors import FaultError, RecoveryError
from repro.faults import (
    AdaptiveCheckpoint,
    EveryKCheckpoint,
    FaultEvent,
    FaultKind,
    FaultRuntime,
    FaultSchedule,
    FaultSpec,
    NoCheckpoint,
    as_schedule,
    list_checkpoint_policies,
)
from repro.net.topology import ClusterTopology


class TestCheckpointPolicies:
    def test_none_never_checkpoints(self):
        policy = NoCheckpoint()
        assert all(
            policy.bytes_at(i, state_bytes=1000, changed_bytes=500) == 0
            for i in range(20)
        )

    def test_every_k_period(self):
        policy = EveryKCheckpoint(k=3)
        snaps = [
            policy.bytes_at(i, state_bytes=1000, changed_bytes=0)
            for i in range(9)
        ]
        assert snaps == [0, 0, 1000, 0, 0, 1000, 0, 0, 1000]

    def test_every_k_validates(self):
        with pytest.raises(RecoveryError):
            EveryKCheckpoint(k=0)

    def test_adaptive_triggers_on_dirty_mass(self):
        policy = AdaptiveCheckpoint(dirty_fraction=0.5)
        policy.reset()
        assert policy.bytes_at(0, state_bytes=1000, changed_bytes=200) == 0
        assert policy.bytes_at(1, state_bytes=1000, changed_bytes=400) == 1000
        # the accumulator resets after a snapshot
        assert policy.bytes_at(2, state_bytes=1000, changed_bytes=100) == 0

    def test_adaptive_reset(self):
        policy = AdaptiveCheckpoint(dirty_fraction=0.5)
        policy.bytes_at(0, state_bytes=1000, changed_bytes=400)
        policy.reset()
        assert policy.bytes_at(1, state_bytes=1000, changed_bytes=400) == 0

    def test_registry(self):
        assert set(list_checkpoint_policies()) == {"none", "every-k", "adaptive"}


class TestAsSchedule:
    def test_none_passthrough(self):
        assert as_schedule(None) is None

    def test_schedule_passthrough(self):
        schedule = FaultSchedule.single_crash(iteration=1, part=0)
        assert as_schedule(schedule) is schedule

    def test_spec_expands(self):
        schedule = as_schedule(FaultSpec(seed=1, horizon=0))
        assert schedule is not None and schedule.empty

    def test_wrong_type_rejected(self):
        with pytest.raises(FaultError):
            as_schedule("crash everything")


class TestFaultRuntime:
    def _runtime(self, events, num_parts=4):
        return FaultRuntime(
            FaultSchedule(events=tuple(events)), num_parts=num_parts
        )

    def test_ndp_down_window(self):
        runtime = self._runtime(
            [
                FaultEvent(
                    iteration=2,
                    kind=FaultKind.NDP_DEVICE_FAILURE,
                    part=1,
                    down_iterations=2,
                )
            ]
        )
        runtime.begin_iteration(0)
        assert not runtime.ndp_down_mask(0).any()
        runtime.begin_iteration(1)
        runtime.begin_iteration(2)
        assert list(runtime.ndp_down_mask(2)) == [False, True, False, False]
        assert list(runtime.ndp_down_mask(3)) == [False, True, False, False]
        assert not runtime.ndp_down_mask(4).any()

    def test_out_of_range_part_rejected(self):
        runtime = self._runtime(
            [
                FaultEvent(
                    iteration=0, kind=FaultKind.NDP_DEVICE_FAILURE, part=9
                )
            ],
            num_parts=4,
        )
        with pytest.raises(FaultError):
            runtime.begin_iteration(0)

    def test_degradation_window_expires(self):
        runtime = self._runtime(
            [
                FaultEvent(
                    iteration=1,
                    kind=FaultKind.LINK_DEGRADATION,
                    down_iterations=2,
                    bandwidth_scale=0.5,
                )
            ]
        )
        topo = ClusterTopology(num_compute=1, num_memory=4)
        assert runtime.tracks_link_health
        runtime.begin_iteration(0)
        assert runtime.degraded_topology(0, topo) is topo
        runtime.begin_iteration(1)
        degraded = runtime.degraded_topology(1, topo)
        assert degraded.host_link.bandwidth_bps == pytest.approx(
            topo.host_link.bandwidth_bps * 0.5
        )
        assert runtime.degraded_topology(2, topo).host_link.bandwidth_bps == (
            degraded.host_link.bandwidth_bps
        )
        # window over: back to pristine
        assert runtime.degraded_topology(3, topo) is topo

    def test_shard_bytes_protocol(self):
        runtime = self._runtime([], num_parts=3)
        assert not runtime.has_shard_bytes
        with pytest.raises(FaultError):
            runtime.shard_bytes_of(0)
        runtime.set_shard_bytes(np.array([10, 20, 30]))
        assert runtime.shard_bytes_of(2) == 30
        with pytest.raises(FaultError):
            runtime.shard_bytes_of(3)
        with pytest.raises(FaultError):
            runtime.set_shard_bytes(np.array([1, 2]))

    def test_checkpoint_reset_on_construction(self):
        policy = AdaptiveCheckpoint(dirty_fraction=0.5)
        policy.bytes_at(0, state_bytes=100, changed_bytes=90)
        FaultRuntime(FaultSchedule(), num_parts=2, checkpoint=policy)
        # construction reset the dirty accumulator
        assert policy.bytes_at(0, state_bytes=1000, changed_bytes=100) == 0

    def test_invalid_num_parts(self):
        with pytest.raises(FaultError):
            FaultRuntime(FaultSchedule(), num_parts=0)
