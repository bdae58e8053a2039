"""In-network aggregation switch model (Section IV.C).

Partial updates from the memory nodes pass through the switch on their way
to the compute nodes.  With INC enabled, the switch merges updates that
target the same destination vertex using the kernel's reduce operator, so
the host link carries one update per *distinct* destination instead of one
per (destination, memory node) pair.

The paper flags the caveat that the gains "are hypothetical and there are
other factors to consider such as the available buffer capacity of the
switch" — so the model enforces a finite aggregation table: destinations
beyond the buffer capacity pass through unmerged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.hardware.device import DeviceModel


@dataclass(frozen=True)
class AggregationOutcome:
    """Byte accounting of one iteration's pass through the switch."""

    updates_in: int  # partial updates entering the switch
    updates_out: int  # updates leaving toward the compute nodes
    bytes_in: int
    bytes_out: int
    aggregated_destinations: int  # destinations merged in the table
    passthrough_updates: int  # updates that missed the table (overflow)
    reduction_ops: float  # ALU ops spent merging


class SwitchModel:
    """A programmable switch with a bounded aggregation table.

    Parameters
    ----------
    device:
        the INC ASIC (from the Table I catalog) doing the merging.
    buffer_bytes:
        aggregation table capacity; each in-flight destination occupies one
        ``slot_bytes``-sized slot.
    slot_bytes:
        per-destination slot size (key + accumulator + metadata).
    """

    def __init__(
        self,
        device: DeviceModel,
        *,
        buffer_bytes: int = 64 * 1024 * 1024,
        slot_bytes: int = 32,
    ) -> None:
        if buffer_bytes < 0:
            raise ConfigError(f"buffer_bytes must be >= 0, got {buffer_bytes}")
        if slot_bytes <= 0:
            raise ConfigError(f"slot_bytes must be > 0, got {slot_bytes}")
        self.device = device
        self.buffer_bytes = int(buffer_bytes)
        self.slot_bytes = int(slot_bytes)

    @property
    def capacity_slots(self) -> int:
        """Destinations the aggregation table can track at once."""
        return self.buffer_bytes // self.slot_bytes

    def aggregate(
        self,
        partial_updates_per_part: np.ndarray,
        updates_per_destination: Optional[np.ndarray],
        distinct_destinations: int,
        wire_bytes: int,
    ) -> AggregationOutcome:
        """Model one iteration's aggregation.

        Parameters
        ----------
        partial_updates_per_part:
            ``|D_p|`` for every memory node — updates entering the switch.
        updates_per_destination:
            multiplicity histogram (how many partials target each distinct
            destination), descending or not; used to pick which
            destinations to keep in a full table (highest fan-in first,
            the best case for a capacity-limited table).  ``None`` means
            uniform multiplicity.
        distinct_destinations:
            ``|union of D_p|``.
        wire_bytes:
            bytes of one update message.
        """
        updates_in = int(np.asarray(partial_updates_per_part).sum())
        if updates_in == 0:
            return AggregationOutcome(0, 0, 0, 0, 0, 0, 0.0)
        cap = self.capacity_slots
        if updates_per_destination is None:
            mult = np.full(
                distinct_destinations,
                updates_in / max(distinct_destinations, 1),
            )
        else:
            mult = np.asarray(updates_per_destination, dtype=np.float64)
            if cap < mult.size:
                # The heaviest fan-ins fill the table, in no particular
                # order: the kept counts are integers, so their sum is
                # exact in any order and no sort is needed.
                cut = mult.size - cap
                mult = np.partition(mult, cut)[cut:] if cap else mult[:0]
        kept = mult[: min(cap, mult.size)]
        merged_updates = float(kept.sum())
        aggregated_dst = int(kept.size)
        passthrough = updates_in - int(round(merged_updates))
        updates_out = aggregated_dst + passthrough
        # Each merge is one reduce op per absorbed update.
        reduction_ops = max(0.0, merged_updates - aggregated_dst)
        return AggregationOutcome(
            updates_in=updates_in,
            updates_out=updates_out,
            bytes_in=updates_in * wire_bytes,
            bytes_out=updates_out * wire_bytes,
            aggregated_destinations=aggregated_dst,
            passthrough_updates=passthrough,
            reduction_ops=reduction_ops,
        )

    def __repr__(self) -> str:
        return (
            f"SwitchModel(device={self.device.name!r}, "
            f"slots={self.capacity_slots})"
        )
