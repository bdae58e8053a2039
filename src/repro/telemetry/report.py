"""Report rendering: movement tables and JSON export."""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.telemetry.movement import MovementLedger
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes


def movement_table(ledger: MovementLedger, title: str = "Data movement") -> TextTable:
    """Render a ledger's phase x link breakdown as a text table."""
    table = TextTable(["phase", "link", "bytes", "human"], title=title)
    for phase, links in ledger.breakdown().items():
        for link, nbytes in links.items():
            table.add_row(phase, link, nbytes, format_bytes(nbytes))
    table.add_row("TOTAL", "network", ledger.network_bytes(), format_bytes(ledger.network_bytes()))
    return table


def fault_table(
    ledger: MovementLedger,
    counters: Mapping[str, float],
    title: str = "Faults and recovery",
) -> TextTable:
    """Render a run's fault/recovery counters plus recovery movement.

    ``counters`` is a :class:`~repro.obs.metrics.CounterSet` (or any
    mapping) holding the ``fault-*`` / ``recovery-*`` / ``checkpoint-*``
    counters the simulators emit while a fault schedule is active.
    """
    table = TextTable(["counter", "value"], title=title)
    names = sorted(
        n
        for n in counters
        if n.startswith(("fault-", "recovery-", "checkpoint-", "offload-denied"))
    )
    for name in names:
        table.add_row(name, f"{counters[name]:g}")
    rec = ledger.recovery_bytes()
    table.add_row("recovery bytes (ledger)", f"{rec} ({format_bytes(rec)})")
    return table


def cache_table(
    counters: Mapping[str, float],
    title: str = "Artifact cache",
) -> TextTable:
    """Render the artifact cache's hit/miss/write counters.

    ``counters`` is a :class:`~repro.obs.metrics.CounterSet` (or any
    mapping) holding the ``cache.*`` counters an
    :class:`~repro.cache.ArtifactCache` accumulates; pass
    ``cache.counters`` directly.
    """
    table = TextTable(["counter", "value"], title=title)
    for name in sorted(n for n in counters if n.startswith("cache.")):
        value = counters[name]
        if name == "cache.seconds_saved":
            table.add_row(name, f"{value:.3f}s")
        else:
            table.add_row(name, f"{value:g}")
    return table


def to_json(payload: Any, *, indent: int = 2) -> str:
    """Serialize experiment output to JSON (numpy scalars coerced)."""
    return json.dumps(payload, indent=indent, default=_coerce)


def _coerce(value: Any) -> Any:
    for attr in ("item",):  # numpy scalars and 0-d arrays
        if hasattr(value, attr):
            try:
                return value.item()
            except (ValueError, TypeError):
                break
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")
