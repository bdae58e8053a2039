"""Data-movement ledger — the paper's primary metric.

Every simulator logs bytes into a :class:`MovementLedger`, keyed by
``(phase, link class)``.  Figures 5-7 report *network data movement*: bytes
that cross the system interconnect (host links + memory links), excluding
node-local and NDP-internal traffic — exactly what the prototype in
Section IV counts with its message buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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

    #: ``(phase, link) -> [bytes, messages]``
    _entries: Dict[Tuple[str, LinkClass], List[int]] = field(default_factory=dict)

    def record(
        self, phase: str, link: LinkClass, nbytes: "int | float", messages: int = 1
    ) -> None:
        """Add one transfer's bytes/messages."""
        if nbytes < 0 or messages < 0:
            raise ValueError("movement amounts must be >= 0")
        key = (phase, link)
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = [int(nbytes), int(messages)]
        else:
            entry[0] += int(nbytes)
            entry[1] += int(messages)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _total(
        self, column: int, phase: "str | None", link: "LinkClass | None"
    ) -> int:
        return sum(
            entry[column]
            for (p, l), entry in self._entries.items()
            if (phase is None or p == phase) and (link is None or l == link)
        )

    def bytes_for(
        self,
        *,
        phase: "str | None" = None,
        link: "LinkClass | None" = None,
    ) -> int:
        """Total bytes matching the given phase and/or link filters."""
        return self._total(0, phase, link)

    def messages_for(
        self,
        *,
        phase: "str | None" = None,
        link: "LinkClass | None" = None,
    ) -> int:
        """Total messages matching the filters."""
        return self._total(1, phase, link)

    def network_bytes(self) -> int:
        """The paper's headline metric: bytes crossing the interconnect."""
        return sum(
            entry[0]
            for (_, l), entry in self._entries.items()
            if l in NETWORK_CLASSES
        )

    def host_link_bytes(self) -> int:
        """Bytes on compute-node links (the usual bottleneck)."""
        return self.bytes_for(link=LinkClass.HOST_LINK)

    def recovery_bytes(self) -> int:
        """Bytes moved by fault recovery and checkpointing.

        Counts every ``recovery-*`` phase plus ``checkpoint`` — zero for a
        fault-free run with no checkpoint policy (a tested invariant).
        """
        return sum(
            entry[0]
            for (p, _), entry in self._entries.items()
            if is_recovery_phase(p)
        )

    def phases(self) -> Tuple[str, ...]:
        """Phases seen so far, sorted."""
        return tuple(sorted({p for p, _ in self._entries}))

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Nested ``{phase: {link: bytes}}`` snapshot."""
        out: Dict[str, Dict[str, int]] = {}
        for (p, l), entry in sorted(
            self._entries.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            out.setdefault(p, {})[l.value] = entry[0]
        return out

    def items(self) -> List[Tuple[Tuple[str, LinkClass], int]]:
        """Raw (key, bytes) items, in first-recorded order."""
        return [(key, entry[0]) for key, entry in self._entries.items()]
