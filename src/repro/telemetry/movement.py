"""Data-movement ledger — the paper's primary metric.

Every simulator logs bytes into a :class:`MovementLedger`, keyed by
``(phase, link class)``.  Figures 5-7 report *network data movement*: bytes
that cross the system interconnect (host links + memory links), excluding
node-local and NDP-internal traffic — exactly what the prototype in
Section IV counts with its message buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.net.link import LinkClass

#: Link classes whose bytes count as "data movement" in the paper's figures.
NETWORK_CLASSES = (LinkClass.HOST_LINK, LinkClass.MEMORY_LINK)

#: Phase-name prefix under which all modeled recovery traffic is recorded
#: (re-replication, rebuild, retransmission) — see ``docs/fault-model.md``.
RECOVERY_PHASE_PREFIX = "recovery-"
#: Checkpoint traffic gets its own phase; it is recovery *preparation*, so
#: :meth:`MovementLedger.recovery_bytes` counts it too.
CHECKPOINT_PHASE = "checkpoint"


def is_recovery_phase(phase: str) -> bool:
    """Whether ``phase`` is fault-recovery or checkpoint traffic."""
    return phase.startswith(RECOVERY_PHASE_PREFIX) or phase == CHECKPOINT_PHASE


@dataclass
class MovementLedger:
    """Byte/message counters keyed by (phase, link class)."""

    _bytes: Dict[Tuple[str, LinkClass], int] = field(default_factory=dict)
    _messages: Dict[Tuple[str, LinkClass], int] = field(default_factory=dict)

    def record(
        self, phase: str, link: LinkClass, nbytes: "int | float", messages: int = 1
    ) -> None:
        """Add one transfer's bytes/messages."""
        if nbytes < 0 or messages < 0:
            raise ValueError("movement amounts must be >= 0")
        key = (phase, link)
        self._bytes[key] = self._bytes.get(key, 0) + int(nbytes)
        self._messages[key] = self._messages.get(key, 0) + int(messages)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def bytes_for(
        self,
        *,
        phase: "str | None" = None,
        link: "LinkClass | None" = None,
    ) -> int:
        """Total bytes matching the given phase and/or link filters."""
        return sum(
            v
            for (p, l), v in self._bytes.items()
            if (phase is None or p == phase) and (link is None or l == link)
        )

    def messages_for(
        self,
        *,
        phase: "str | None" = None,
        link: "LinkClass | None" = None,
    ) -> int:
        """Total messages matching the filters."""
        return sum(
            v
            for (p, l), v in self._messages.items()
            if (phase is None or p == phase) and (link is None or l == link)
        )

    def network_bytes(self) -> int:
        """The paper's headline metric: bytes crossing the interconnect."""
        return sum(
            v for (_, l), v in self._bytes.items() if l in NETWORK_CLASSES
        )

    def host_link_bytes(self) -> int:
        """Bytes on compute-node links (the usual bottleneck)."""
        return self.bytes_for(link=LinkClass.HOST_LINK)

    def recovery_bytes(self) -> int:
        """Bytes moved by fault recovery and checkpointing.

        Counts every ``recovery-*`` phase plus ``checkpoint`` — zero for a
        fault-free run with no checkpoint policy (a tested invariant).
        """
        return sum(v for (p, _), v in self._bytes.items() if is_recovery_phase(p))

    def phases(self) -> Tuple[str, ...]:
        """Phases seen so far, sorted."""
        return tuple(sorted({p for p, _ in self._bytes}))

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Nested ``{phase: {link: bytes}}`` snapshot."""
        out: Dict[str, Dict[str, int]] = {}
        for (p, l), v in sorted(self._bytes.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
            out.setdefault(p, {})[l.value] = v
        return out

    def merge(self, other: "MovementLedger") -> None:
        """Fold another ledger into this one."""
        for (p, l), v in other._bytes.items():
            self.record(p, l, v, other._messages.get((p, l), 0))

    def items(self) -> Iterable[Tuple[Tuple[str, LinkClass], int]]:
        """Raw (key, bytes) items."""
        return self._bytes.items()
