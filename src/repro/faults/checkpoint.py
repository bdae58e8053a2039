"""Pluggable checkpoint policies.

Checkpointing is the *preparation* side of recovery: hosts periodically
persist the kernel's vertex-property state so a crash rolls back to the
last checkpoint instead of iteration zero.  In the movement model a
checkpoint is a transfer of the state snapshot across the host links
(hosts -> durable pool storage), accounted in the ledger under the
``checkpoint`` phase like any other movement — which is exactly the tension
the policies trade off: checkpoint often and pay steady-state bytes, or
rarely and pay a larger re-execution window (not modeled — numerics run
once) after a crash.

Policies are stateful across one run (the adaptive policy accumulates dirty
bytes), so the per-run :class:`~repro.faults.recovery.FaultRuntime` calls
:meth:`CheckpointPolicy.reset` before the first iteration.
"""

from __future__ import annotations

import abc

from repro.errors import RecoveryError


class CheckpointPolicy(abc.ABC):
    """Decide, per iteration, how many checkpoint bytes the hosts persist."""

    name: str = "abstract"

    def reset(self) -> None:
        """Forget per-run state (called once at run start)."""

    @abc.abstractmethod
    def bytes_at(
        self, iteration: int, *, state_bytes: int, changed_bytes: int
    ) -> int:
        """Checkpoint bytes written after ``iteration``.

        ``state_bytes`` is the full property-snapshot size; ``changed_bytes``
        the wire size of this iteration's changed values.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoCheckpoint(CheckpointPolicy):
    """Never checkpoint (the fault-free default — zero added movement)."""

    name = "none"

    def bytes_at(self, iteration, *, state_bytes, changed_bytes) -> int:
        return 0


class EveryKCheckpoint(CheckpointPolicy):
    """Full snapshot every ``k`` iterations (classic periodic checkpointing)."""

    name = "every-k"

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise RecoveryError(f"checkpoint interval must be >= 1, got {k}")
        self.k = int(k)

    def bytes_at(self, iteration, *, state_bytes, changed_bytes) -> int:
        return state_bytes if (iteration + 1) % self.k == 0 else 0

    def __repr__(self) -> str:
        return f"EveryKCheckpoint(k={self.k})"


class AdaptiveCheckpoint(CheckpointPolicy):
    """Snapshot once the accumulated dirty bytes clear a state fraction.

    Tracks the wire bytes of changed values since the last snapshot and
    checkpoints when they exceed ``dirty_fraction`` of the full state —
    frequent snapshots while the computation churns (early PageRank, BFS
    expansion) and almost none once it settles.
    """

    name = "adaptive"

    def __init__(self, dirty_fraction: float = 0.5) -> None:
        if not 0.0 < dirty_fraction <= 1.0:
            raise RecoveryError(
                f"dirty_fraction must be in (0, 1], got {dirty_fraction}"
            )
        self.dirty_fraction = float(dirty_fraction)
        self._dirty = 0

    def reset(self) -> None:
        self._dirty = 0

    def bytes_at(self, iteration, *, state_bytes, changed_bytes) -> int:
        self._dirty += int(changed_bytes)
        if state_bytes > 0 and self._dirty >= self.dirty_fraction * state_bytes:
            self._dirty = 0
            return state_bytes
        return 0

    def __repr__(self) -> str:
        return f"AdaptiveCheckpoint(dirty_fraction={self.dirty_fraction})"


def list_checkpoint_policies() -> tuple[str, ...]:
    """The checkpoint policy names, sorted."""
    return tuple(
        sorted(
            cls.name
            for cls in (NoCheckpoint, EveryKCheckpoint, AdaptiveCheckpoint)
        )
    )
