"""Distributed NDP architecture — GraphQ-style PIM clusters (Fig. 3).

Placement and communication volume are identical to the plain distributed
architecture (NDP inside a node "does not fundamentally change inter-node
data movement" — Section III.B); what changes is the timing model:

* node-local phases run on the per-node NDP device (process/apply units
  with memory-capacity-proportional bandwidth), and
* a hybrid execution model overlaps communication with computation,
  hiding ``overlap_fraction`` of the transfer time — but, as the paper
  notes, it "cannot eliminate it": with little compute to overlap against,
  the communication cost is exposed.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.distributed import DistributedSimulator
from repro.errors import ConfigError
from repro.hardware.capabilities import check_offload
from repro.runtime.config import SystemConfig


class DistributedNDPSimulator(DistributedSimulator):
    """Distributed cluster whose nodes carry PIM/PNM acceleration."""

    name = "distributed-ndp"
    has_near_memory_acceleration = True
    is_disaggregated = False
    #: the PIM units are the node's only execution engine for the shard —
    #: there is no host fallback inside a node, so a failed device takes the
    #: whole node out of service (crash-and-recover semantics)
    ndp_failure_is_fatal = True

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        super().__init__(config)
        if self.config.ndp_device is None:
            raise ConfigError("distributed-ndp requires an ndp_device per node")

    def _compute_device(self):
        return self.config.ndp_device

    def _exposed_communication(self, comm_seconds: float, compute_seconds: float) -> float:
        """Hybrid execution: overlap hides communication behind compute."""
        hideable = min(
            comm_seconds * self.config.overlap_fraction, compute_seconds
        )
        return comm_seconds - hideable

    def _check_capability(self, kernel) -> None:
        # GraphQ-style units have no host fallback inside the node: a kernel
        # the per-node accelerators cannot execute has no distributed-NDP
        # deployment to run or account for.
        check = check_offload(kernel, self.config.ndp_device, phase="traverse")
        check.raise_if_denied()
