"""Unit tests for the in-network aggregation switch model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hardware.catalog import SHARP_SWITCH
from repro.net.switch import SwitchModel


def make_switch(buffer_bytes=1 << 20, slot_bytes=32):
    return SwitchModel(SHARP_SWITCH, buffer_bytes=buffer_bytes, slot_bytes=slot_bytes)


class TestSwitchModel:
    def test_capacity_slots(self):
        assert make_switch(buffer_bytes=3200, slot_bytes=32).capacity_slots == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            SwitchModel(SHARP_SWITCH, buffer_bytes=-1)
        with pytest.raises(ConfigError):
            SwitchModel(SHARP_SWITCH, slot_bytes=0)

    def test_perfect_aggregation(self):
        # 4 nodes each send updates for the same 100 destinations.
        switch = make_switch()
        outcome = switch.aggregate(
            np.full(4, 100),
            np.full(100, 4.0),
            distinct_destinations=100,
            wire_bytes=16,
        )
        assert outcome.updates_in == 400
        assert outcome.updates_out == 100
        assert outcome.bytes_out == 1600
        assert outcome.passthrough_updates == 0
        assert outcome.reduction_ops == pytest.approx(300)

    def test_no_updates(self):
        outcome = make_switch().aggregate(np.zeros(4), None, 0, 16)
        assert outcome.updates_in == 0

    def test_no_duplication_no_benefit(self):
        # Every destination hit by exactly one node: nothing to merge.
        outcome = make_switch().aggregate(
            np.full(4, 25), np.ones(100), distinct_destinations=100, wire_bytes=16
        )
        assert outcome.updates_out == outcome.updates_in

    def test_buffer_overflow_passthrough(self):
        # Table holds 10 destinations; 100 distinct with fan-in 4 each.
        switch = make_switch(buffer_bytes=320, slot_bytes=32)
        outcome = switch.aggregate(
            np.full(4, 100), np.full(100, 4.0), 100, 16
        )
        assert outcome.aggregated_destinations == 10
        # 10 destinations merged (40 updates -> 10), 360 pass through.
        assert outcome.updates_out == 10 + 360

    def test_overflow_keeps_heaviest_destinations(self):
        switch = make_switch(buffer_bytes=32, slot_bytes=32)  # one slot
        mult = np.array([10.0, 1.0, 1.0])
        outcome = switch.aggregate(np.array([12]), mult, 3, 16)
        # The single slot should hold the fan-in-10 destination.
        assert outcome.updates_out == 1 + 2

    def test_zero_buffer_disables_merging(self):
        switch = make_switch(buffer_bytes=0)
        outcome = switch.aggregate(np.full(4, 100), np.full(100, 4.0), 100, 16)
        assert outcome.updates_out == outcome.updates_in

    def test_bytes_track_updates(self):
        switch = make_switch()
        outcome = switch.aggregate(np.array([7, 3]), None, 6, 24)
        assert outcome.bytes_in == 10 * 24
        assert outcome.bytes_out == outcome.updates_out * 24

    def test_repr(self):
        assert "sharp" in repr(make_switch())

    @pytest.mark.parametrize("capacity", ["zero", "below", "equal", "above"])
    def test_matches_sorted_formula(self, capacity):
        # The table keeps the heaviest fan-ins; the kept counts are
        # integers, so any order of them sums to the sorted formula's bytes.
        rng = np.random.default_rng(7)
        fanin = rng.integers(1, 9, size=300)
        slots = {"zero": 0, "below": 37, "equal": 300, "above": 1000}[capacity]
        switch = make_switch(buffer_bytes=32 * slots, slot_bytes=32)
        partials = np.asarray([fanin.sum()])
        outcome = switch.aggregate(partials, fanin, fanin.size, 16)

        kept = np.sort(fanin.astype(np.float64))[::-1][:slots]
        merged = float(kept.sum())
        passthrough = int(fanin.sum()) - int(round(merged))
        assert outcome.aggregated_destinations == kept.size
        assert outcome.passthrough_updates == passthrough
        assert outcome.updates_out == kept.size + passthrough
        assert outcome.bytes_out == (kept.size + passthrough) * 16
        assert outcome.reduction_ops == max(0.0, merged - kept.size)
