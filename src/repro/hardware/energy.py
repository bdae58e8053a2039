"""First-order energy model.

NDP papers (Graphicionado [8], GraphQ [6]) motivate near-data designs with
energy as well as time: moving a byte across the system interconnect costs
orders of magnitude more energy than an ALU op next to the data.  This
model charges per-byte costs by link class and per-op costs by device so
ablation benches can report the energy side of the offload trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

#: picojoules, first-order figures from the accelerator literature
PJ = 1e-12


@dataclass(frozen=True)
class EnergyModel:
    """Per-byte and per-op energy coefficients."""

    network_pj_per_byte: float = 1000.0  # NIC + switch + NIC traversal
    local_dram_pj_per_byte: float = 20.0
    ndp_internal_pj_per_byte: float = 4.0  # short on-module wires
    host_pj_per_op: float = 50.0
    ndp_pj_per_op: float = 10.0

    def movement_joules(self, network_bytes: float, local_bytes: float, ndp_bytes: float) -> float:
        """Energy to move the given byte volumes by path class."""
        return PJ * (
            network_bytes * self.network_pj_per_byte
            + local_bytes * self.local_dram_pj_per_byte
            + ndp_bytes * self.ndp_internal_pj_per_byte
        )
