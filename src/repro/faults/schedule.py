"""Deterministic, seed-driven fault schedules.

A :class:`FaultSchedule` is an immutable, sorted list of
:class:`~repro.faults.events.FaultEvent`\\ s; simulators consult it at every
iteration boundary.  Schedules are built either programmatically (exact
events for targeted tests: "crash node 3 at iteration 5") or from a
:class:`FaultSpec` — a probabilistic description expanded *once*, at build
time, through ``numpy``'s deterministic PCG stream.  Because all randomness
is consumed at construction, the same spec + seed yields bit-identical
schedules — and therefore bit-identical recovery ledgers — no matter how
many times, in which process, or on how many sweep workers the schedule is
replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.events import FaultEvent, FaultKind


@dataclass(frozen=True)
class FaultSpec:
    """Probabilistic fault model expanded into a concrete schedule.

    Per-iteration, per-class Bernoulli draws over ``horizon`` iterations;
    crash/NDP events pick a uniform victim among ``num_parts`` nodes.
    ``replication_factor >= 2`` means every shard has live replicas to
    re-replicate from after a crash; ``1`` means crashes rebuild from
    source storage through the hosts (see ``docs/fault-model.md``).
    """

    seed: int = 0
    horizon: int = 30
    num_parts: int = 8
    memory_crash_prob: float = 0.0
    ndp_failure_prob: float = 0.0
    link_degradation_prob: float = 0.0
    message_drop_prob: float = 0.0
    ndp_down_iterations: int = 2
    degraded_bandwidth_scale: float = 0.5
    degraded_extra_latency_s: float = 10e-6
    link_down_iterations: int = 2
    drop_fraction: float = 0.05
    replication_factor: int = 1
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise FaultError(f"horizon must be >= 0, got {self.horizon}")
        if self.num_parts < 1:
            raise FaultError(f"num_parts must be >= 1, got {self.num_parts}")
        for name in (
            "memory_crash_prob",
            "ndp_failure_prob",
            "link_degradation_prob",
            "message_drop_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {p}")
        if self.replication_factor < 1:
            raise FaultError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.max_events is not None and self.max_events < 0:
            raise FaultError(f"max_events must be >= 0, got {self.max_events}")

    @classmethod
    def standard(
        cls,
        *,
        seed: int,
        num_parts: int,
        replication_factor: int = 1,
        horizon: int = 30,
    ) -> "FaultSpec":
        """The canonical mixed-fault recipe shared by the CLIs and sweeps.

        A moderate blend of every fault class — the same probabilities the
        ``repro-run --crash-at``-free fault path and the faults experiment
        have always used, captured in one place so the two CLIs cannot
        drift apart.
        """
        return cls(
            seed=seed,
            horizon=horizon,
            num_parts=num_parts,
            memory_crash_prob=0.05,
            ndp_failure_prob=0.10,
            link_degradation_prob=0.10,
            message_drop_prob=0.15,
            replication_factor=replication_factor,
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable sequence of fault events, sorted by iteration.

    Replay-side state (which NDP devices are currently down, cumulative
    link degradation) lives in the per-run
    :class:`~repro.faults.recovery.FaultRuntime`, never here — one schedule
    can drive any number of concurrent, independent runs.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: shard copies kept alive; >= 2 enables re-replication from survivors
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise FaultError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.iteration, e.kind.value, e.part))
        )
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(cls, spec: FaultSpec) -> "FaultSchedule":
        """Expand a probabilistic spec into a concrete schedule (seeded)."""
        rng = np.random.default_rng(spec.seed)
        events = []
        for it in range(spec.horizon):
            if spec.memory_crash_prob and rng.random() < spec.memory_crash_prob:
                events.append(
                    FaultEvent(
                        iteration=it,
                        kind=FaultKind.MEMORY_NODE_CRASH,
                        part=int(rng.integers(spec.num_parts)),
                    )
                )
            if spec.ndp_failure_prob and rng.random() < spec.ndp_failure_prob:
                events.append(
                    FaultEvent(
                        iteration=it,
                        kind=FaultKind.NDP_DEVICE_FAILURE,
                        part=int(rng.integers(spec.num_parts)),
                        down_iterations=spec.ndp_down_iterations,
                    )
                )
            if spec.link_degradation_prob and rng.random() < spec.link_degradation_prob:
                events.append(
                    FaultEvent(
                        iteration=it,
                        kind=FaultKind.LINK_DEGRADATION,
                        down_iterations=spec.link_down_iterations,
                        bandwidth_scale=spec.degraded_bandwidth_scale,
                        extra_latency_s=spec.degraded_extra_latency_s,
                    )
                )
            if spec.message_drop_prob and rng.random() < spec.message_drop_prob:
                events.append(
                    FaultEvent(
                        iteration=it,
                        kind=FaultKind.MESSAGE_DROP,
                        drop_fraction=spec.drop_fraction,
                    )
                )
        if spec.max_events is not None:
            events = events[: spec.max_events]
        return cls(
            events=tuple(events), replication_factor=spec.replication_factor
        )

    @classmethod
    def single_crash(
        cls, *, iteration: int, part: int, replication_factor: int = 1
    ) -> "FaultSchedule":
        """The canonical targeted schedule: one memory-node crash."""
        return cls(
            events=(
                FaultEvent(
                    iteration=iteration,
                    kind=FaultKind.MEMORY_NODE_CRASH,
                    part=part,
                ),
            ),
            replication_factor=replication_factor,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def events_at(self, iteration: int) -> Tuple[FaultEvent, ...]:
        """Events firing at the boundary before ``iteration``."""
        return tuple(e for e in self.events if e.iteration == iteration)

    def describe(self) -> Tuple[str, ...]:
        """One line per event, in firing order."""
        return tuple(e.describe() for e in self.events)
