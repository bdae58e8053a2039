"""Unit tests for fault events and seed-driven schedules."""

import pytest

from repro.errors import FaultError
from repro.faults import FaultEvent, FaultKind, FaultSchedule, FaultSpec


class TestFaultEvent:
    def test_describe_mentions_kind(self):
        event = FaultEvent(
            iteration=3, kind=FaultKind.MEMORY_NODE_CRASH, part=2
        )
        assert "memory node 2 crashes" in event.describe()

    def test_negative_iteration_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(iteration=-1, kind=FaultKind.MESSAGE_DROP)

    def test_crash_requires_target_part(self):
        with pytest.raises(FaultError):
            FaultEvent(iteration=0, kind=FaultKind.MEMORY_NODE_CRASH)

    def test_bandwidth_scale_validated(self):
        with pytest.raises(FaultError):
            FaultEvent(
                iteration=0,
                kind=FaultKind.LINK_DEGRADATION,
                bandwidth_scale=0.0,
            )
        with pytest.raises(FaultError):
            FaultEvent(
                iteration=0,
                kind=FaultKind.LINK_DEGRADATION,
                bandwidth_scale=1.5,
            )

    def test_drop_fraction_validated(self):
        with pytest.raises(FaultError):
            FaultEvent(
                iteration=0, kind=FaultKind.MESSAGE_DROP, drop_fraction=1.5
            )


class TestFaultSpec:
    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(memory_crash_prob=1.5)

    def test_replication_factor_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(replication_factor=0)


class TestFaultSchedule:
    def test_from_spec_is_deterministic(self):
        spec = FaultSpec(
            seed=42,
            horizon=50,
            num_parts=8,
            memory_crash_prob=0.1,
            ndp_failure_prob=0.1,
            link_degradation_prob=0.1,
            message_drop_prob=0.1,
        )
        assert FaultSchedule.from_spec(spec) == FaultSchedule.from_spec(spec)

    def test_different_seeds_differ(self):
        kwargs = dict(
            horizon=50, num_parts=8, memory_crash_prob=0.3, message_drop_prob=0.3
        )
        a = FaultSchedule.from_spec(FaultSpec(seed=1, **kwargs))
        b = FaultSchedule.from_spec(FaultSpec(seed=2, **kwargs))
        assert a != b

    def test_zero_probabilities_empty(self):
        schedule = FaultSchedule.from_spec(FaultSpec(seed=0, horizon=100))
        assert schedule.empty
        assert len(schedule) == 0

    def test_events_sorted_by_iteration(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(iteration=5, kind=FaultKind.MESSAGE_DROP),
                FaultEvent(
                    iteration=1, kind=FaultKind.MEMORY_NODE_CRASH, part=0
                ),
            )
        )
        assert [e.iteration for e in schedule.events] == [1, 5]

    def test_events_at(self):
        schedule = FaultSchedule.single_crash(iteration=4, part=1)
        assert schedule.events_at(4)[0].part == 1
        assert schedule.events_at(3) == ()

    def test_max_events_truncates(self):
        spec = FaultSpec(
            seed=3, horizon=100, message_drop_prob=0.9, max_events=5
        )
        assert len(FaultSchedule.from_spec(spec)) == 5

    def test_describe(self):
        schedule = FaultSchedule.single_crash(iteration=2, part=0)
        assert len(schedule.describe()) == 1

    def test_parts_respect_spec(self):
        spec = FaultSpec(
            seed=5, horizon=60, num_parts=4, memory_crash_prob=0.5
        )
        schedule = FaultSchedule.from_spec(spec)
        assert schedule.events
        assert all(0 <= e.part < 4 for e in schedule.events)
