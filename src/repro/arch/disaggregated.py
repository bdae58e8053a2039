"""Disaggregated architecture with a passive memory pool (paper Fig. 1a).

Hosts keep vertex properties locally; edge lists live on memory-pool nodes
with no processing capability.  Every iteration the hosts request and fetch
the frontier's edge lists over the interconnect (8 B per edge), traverse
locally, and apply updates locally — the FAM-Graph-style deployment whose
movement cost is proportional to the frontier's out-degree mass.
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import ArchitectureSimulator, RunContext
from repro.arch.engine import IterationProfile
from repro.arch.results import IterationStats
from repro.kernels.base import VERTEX_ID_BYTES
from repro.net.link import LinkClass
from repro.partition.base import ProfileScratch, distinct_pairs
from repro.runtime.cost_model import edge_record_bytes


class DisaggregatedSimulator(ArchitectureSimulator):
    """Compute pool + passive remote memory pool."""

    name = "disaggregated"
    has_near_memory_acceleration = False
    is_disaggregated = True
    #: re-replication streams pool-node to pool-node through the switch;
    #: the host links never see it (resource independence, Section II)
    recovery_link_class = LinkClass.MEMORY_LINK

    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        return self._account_fetch(profile, ctx, offloaded=False)

    # Shared with the NDP subclass for its no-offload iterations.
    def _account_fetch(
        self, profile: IterationProfile, ctx: RunContext, *, offloaded: bool
    ) -> IterationStats:
        kernel = ctx.kernel
        ledger = ctx.result.ledger
        topo = ctx.topology
        eb = edge_record_bytes(kernel)
        bytes_by_phase: dict[str, int] = {}

        # Hosts ask each memory node for the adjacency of its frontier slice.
        request_bytes = VERTEX_ID_BYTES * profile.frontier_size
        active_parts = profile.active_parts
        ledger.record(
            "edge-fetch-request",
            LinkClass.HOST_LINK,
            request_bytes,
            max(active_parts, 1) if profile.frontier_size else 0,
        )
        bytes_by_phase["edge-fetch-request"] = request_bytes

        # Memory nodes stream the requested edge lists back.
        fetch_bytes = eb * profile.edges_traversed
        ledger.record(
            "edge-fetch",
            LinkClass.HOST_LINK,
            fetch_bytes,
            active_parts,
        )
        bytes_by_phase["edge-fetch"] = fetch_bytes

        # Cross-host shuffle of updates when properties span several hosts.
        shuffle_bytes = self._host_shuffle_bytes(profile, ctx)
        if shuffle_bytes:
            ledger.record("host-shuffle", LinkClass.HOST_LINK, shuffle_bytes)
            bytes_by_phase["host-shuffle"] = shuffle_bytes

        # ---- timing ---------------------------------------------------- #
        traverse_ops = kernel.compute.traverse_ops(profile.edges_traversed)
        apply_ops = kernel.compute.apply_ops(profile.touched.size)
        traverse_seconds = self._host_shared_seconds(
            traverse_ops, eb * profile.edges_traversed
        )
        apply_seconds = self._host_shared_seconds(
            apply_ops, kernel.message.wire_bytes * profile.touched.size
        )
        fanin = topo.memory_fanin_seconds(
            eb * profile.edges_per_part,
            np.minimum(profile.frontier_per_part, 1),
        )
        fanout = topo.host_fanout_seconds(
            float(fetch_bytes + shuffle_bytes), active_parts
        )
        request = topo.host_push_seconds(float(request_bytes), active_parts)
        movement_seconds = request + max(fanin, fanout)
        participants = self.num_compute_nodes()
        sync_seconds = topo.barrier_seconds(participants)

        host_bytes = request_bytes + fetch_bytes + shuffle_bytes
        return IterationStats(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            distinct_destinations=profile.distinct_destinations,
            partial_update_pairs=profile.partial_update_pairs,
            cross_update_pairs=profile.cross_update_pairs(ctx.assignment.parts),
            changed_vertices=int(profile.changed.size),
            offloaded=offloaded,
            host_link_bytes=host_bytes,
            network_bytes=host_bytes,
            bytes_by_phase=bytes_by_phase,
            traverse_seconds=traverse_seconds,
            movement_seconds=movement_seconds,
            apply_seconds=apply_seconds,
            sync_seconds=sync_seconds,
            traverse_ops=traverse_ops,
            apply_ops=apply_ops,
            sync_participants=participants,
        )

    def _host_shuffle_bytes(self, profile: IterationProfile, ctx: RunContext) -> int:
        """Bytes to reshuffle updates between hosts when C > 1.

        Host ownership of properties follows the partition map round-robin
        (part ``p`` is served by host ``p % C``); an update produced while
        traversing part ``p``'s frontier slice must reach the host owning
        the destination's part.
        """
        hosts = self.num_compute_nodes()
        if hosts <= 1 or profile.pair_dst.size == 0:
            return 0
        parts = ctx.assignment.parts
        src_host = profile.pair_part % hosts
        dst_host = parts[profile.pair_dst] % hosts
        cross = src_host != dst_host
        if not cross.any():
            return 0
        _, shuffled, _, _ = distinct_pairs(
            profile.pair_dst[cross],
            src_host[cross],
            hosts,
            parts.size,
            ProfileScratch(),
        )
        return int(shuffled.size) * ctx.kernel.message.wire_bytes
