"""Deterministic fault injection and recovery accounting.

The paper motivates disaggregated NDP with *resource independence*: memory
nodes, compute hosts, and the fabric fail and scale separately.  This
package models those failures for all four architecture simulators —
seed-driven schedules of memory-node crashes, NDP-device failures, link
degradation, and transient message drops, injected at iteration boundaries
— and accounts the modeled recovery (shard re-replication or rebuild,
checkpointing, retransmission) in the movement ledger like any other phase.
Faults never perturb the kernel numerics; they change what the accounting
sees, exactly like the paper's run-once/account-per-deployment methodology.

See ``docs/fault-model.md`` for the taxonomy and the cost formulas.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".checkpoint": (
            "AdaptiveCheckpoint", "CheckpointPolicy", "EveryKCheckpoint",
            "NoCheckpoint", "list_checkpoint_policies",
        ),
        ".events": ("FaultEvent", "FaultKind"),
        ".recovery": ("FaultRuntime", "FaultsLike", "as_schedule"),
        ".schedule": ("FaultSchedule", "FaultSpec"),
    },
)
