"""Cluster topology: compute pool + memory pool around one switch.

The disaggregated deployments of Fig. 1 are star-shaped: every compute and
memory node hangs off a (possibly programmable) switch.  Distributed
deployments reuse the same star with compute+memory collapsed into the same
nodes.  The topology owns the link parameters and answers timing queries
for phase-level transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.net.link import DEFAULT_HOST_LINK, DEFAULT_MEMORY_LINK, Link
from repro.net.switch import SwitchModel


@dataclass(frozen=True)
class ClusterTopology:
    """Star topology with ``num_compute`` hosts and ``num_memory`` pool nodes."""

    num_compute: int
    num_memory: int
    host_link: Link = field(default=DEFAULT_HOST_LINK)
    memory_link: Link = field(default=DEFAULT_MEMORY_LINK)
    switch: Optional[SwitchModel] = None

    def __post_init__(self) -> None:
        if self.num_compute < 1:
            raise ConfigError(f"num_compute must be >= 1, got {self.num_compute}")
        if self.num_memory < 0:
            raise ConfigError(f"num_memory must be >= 0, got {self.num_memory}")

    @property
    def num_nodes(self) -> int:
        """All endpoints (excluding the switch)."""
        return self.num_compute + self.num_memory

    def with_degraded_links(
        self,
        *,
        bandwidth_scale: float = 1.0,
        extra_latency_s: float = 0.0,
        host: bool = True,
        memory: bool = True,
    ) -> "ClusterTopology":
        """A copy of this topology with degraded link parameters.

        Fault models swap the topology rather than mutating links in place
        (links are frozen); ``host``/``memory`` select which link classes
        the degradation hits.
        """
        return replace(
            self,
            host_link=(
                self.host_link.degraded(bandwidth_scale, extra_latency_s)
                if host
                else self.host_link
            ),
            memory_link=(
                self.memory_link.degraded(bandwidth_scale, extra_latency_s)
                if memory
                else self.memory_link
            ),
        )

    def memory_fanin_seconds(self, bytes_per_node: np.ndarray, active: np.ndarray) -> float:
        """Time for the active memory nodes to push their bytes to the switch.

        ``active`` marks the nodes that send (one message each); a node
        with bytes sends too.  Memory-node links run in parallel and the
        phase finishes when the slowest node finishes (bottleneck model).
        Every node has the same ``memory_link``, whose time grows with the
        bytes, so the slowest is the node with the most bytes.
        """
        bytes_per_node = np.asarray(bytes_per_node, dtype=np.float64)
        if bytes_per_node.size == 0:
            return 0.0
        if bytes_per_node.min() < 0:
            raise ConfigError("transfer sizes must be >= 0")
        peak = float(bytes_per_node.max())
        if peak == 0 and not np.any(active):
            return 0.0
        return self.memory_link.transfer_seconds(peak, 1)

    def host_fanout_seconds(self, total_bytes: float, total_messages: int) -> float:
        """Time for the switch to deliver ``total_bytes`` spread evenly
        across the compute-node links (which run in parallel)."""
        if total_bytes <= 0 and total_messages <= 0:
            return 0.0
        per_host_bytes = total_bytes / self.num_compute
        per_host_msgs = max(1, int(np.ceil(total_messages / self.num_compute)))
        return self.host_link.transfer_seconds(per_host_bytes, per_host_msgs)

    def barrier_seconds(self, participants: int) -> float:
        """Tree-barrier latency across ``participants`` nodes."""
        if participants <= 1:
            return 0.0
        return self.host_link.latency_s * 2.0 * float(np.ceil(np.log2(participants)))
