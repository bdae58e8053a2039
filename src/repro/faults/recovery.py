"""Per-run fault state and recovery cost bookkeeping.

A :class:`FaultRuntime` is created by a simulator for one run (or replay)
from an immutable :class:`~repro.faults.schedule.FaultSchedule`.  It owns
everything that varies *during* the run — which NDP devices are currently
down, the checkpoint policy's dirty-byte accumulator, the running fault
counters — so one schedule can drive any number of independent runs and
always produce bit-identical recovery ledgers.

The byte formulas themselves (what a crash costs, what a checkpoint costs)
live in :meth:`ArchitectureSimulator._account_recovery` and
``docs/fault-model.md``; the runtime only answers *state* questions:
which events fire now, which parts cannot offload, how big each part's
shard is.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import FaultError
from repro.faults.checkpoint import CheckpointPolicy, NoCheckpoint
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule, FaultSpec

#: Anything the ``faults=`` parameter of ``run``/``replay`` accepts.
FaultsLike = Union[FaultSchedule, FaultSpec, None]


def as_schedule(faults: FaultsLike) -> Optional[FaultSchedule]:
    """Normalize the ``faults=`` argument to a schedule (or ``None``)."""
    if faults is None:
        return None
    if isinstance(faults, FaultSchedule):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultSchedule.from_spec(faults)
    raise FaultError(
        f"faults must be a FaultSchedule, FaultSpec or None, got "
        f"{type(faults).__name__}"
    )


class FaultRuntime:
    """Mutable per-run view over one immutable fault schedule."""

    def __init__(
        self,
        schedule: Optional[FaultSchedule],
        *,
        num_parts: int,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> None:
        if num_parts < 1:
            raise FaultError(f"num_parts must be >= 1, got {num_parts}")
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.num_parts = int(num_parts)
        self.checkpoint = checkpoint if checkpoint is not None else NoCheckpoint()
        self.checkpoint.reset()
        #: iteration index up to which (exclusive) each part's NDP device
        #: is out of service
        self._ndp_down_until = np.zeros(self.num_parts, dtype=np.int64)
        #: active link-degradation windows as ``(until_iteration, scale,
        #: extra_latency_s)`` — overlapping windows compound
        self._degradations: list = []
        #: the run's undegraded topology, set lazily by the simulator so
        #: degradation windows can expire back to full link health
        self.pristine_topology = None
        #: per-part shard wire bytes, filled lazily by the simulator
        self._shard_bytes: Optional[np.ndarray] = None
        self.events_fired = 0

    # ------------------------------------------------------------------ #
    # Iteration-boundary protocol
    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> Tuple[FaultEvent, ...]:
        """Events firing before ``iteration``; updates device-down state."""
        events = self.schedule.events_at(iteration)
        for event in events:
            if event.kind is FaultKind.NDP_DEVICE_FAILURE:
                if event.part >= self.num_parts:
                    raise FaultError(
                        f"fault targets part {event.part}, run has only "
                        f"{self.num_parts} parts"
                    )
                self._ndp_down_until[event.part] = max(
                    int(self._ndp_down_until[event.part]),
                    iteration + event.down_iterations,
                )
            elif event.kind is FaultKind.LINK_DEGRADATION:
                self._degradations.append(
                    (
                        iteration + event.down_iterations,
                        event.bandwidth_scale,
                        event.extra_latency_s,
                    )
                )
        self.events_fired += len(events)
        return events

    @property
    def tracks_link_health(self) -> bool:
        """Whether the schedule ever degrades links (topology is rebuilt
        per iteration only when it does)."""
        return any(
            e.kind is FaultKind.LINK_DEGRADATION for e in self.schedule.events
        )

    def degraded_topology(self, iteration: int, topology):
        """``topology`` with every currently-active degradation applied.

        Windows that expired restore silently (the pristine topology is the
        caller's baseline); overlapping windows multiply bandwidth cuts and
        add latency spikes.
        """
        for until, scale, extra in self._degradations:
            if until > iteration:
                topology = topology.with_degraded_links(
                    bandwidth_scale=scale, extra_latency_s=extra
                )
        return topology

    def ndp_down_mask(self, iteration: int) -> np.ndarray:
        """``bool[num_parts]``: parts whose NDP device is down this iteration."""
        return self._ndp_down_until > iteration

    # ------------------------------------------------------------------ #
    # Shard sizing (filled once per run by the simulator)
    # ------------------------------------------------------------------ #

    @property
    def has_shard_bytes(self) -> bool:
        return self._shard_bytes is not None

    def set_shard_bytes(self, shard_bytes: np.ndarray) -> None:
        shard_bytes = np.asarray(shard_bytes, dtype=np.int64)
        if shard_bytes.shape != (self.num_parts,):
            raise FaultError(
                f"shard_bytes must have shape ({self.num_parts},), got "
                f"{shard_bytes.shape}"
            )
        self._shard_bytes = shard_bytes

    def shard_bytes_of(self, part: int) -> int:
        if self._shard_bytes is None:
            raise FaultError("shard bytes were never computed for this run")
        if not 0 <= part < self.num_parts:
            raise FaultError(
                f"part {part} out of range [0, {self.num_parts})"
            )
        return int(self._shard_bytes[part])

    def __repr__(self) -> str:
        return (
            f"FaultRuntime({len(self.schedule)} events, parts="
            f"{self.num_parts}, checkpoint={self.checkpoint!r})"
        )
