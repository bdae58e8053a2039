"""Disaggregated architecture with a passive memory pool (paper Fig. 1a).

Hosts keep vertex properties locally; edge lists live on memory-pool nodes
with no processing capability.  Every iteration the hosts request and fetch
the frontier's edge lists over the interconnect (8 B per edge), traverse
locally, and apply updates locally — the FAM-Graph-style deployment whose
movement cost is proportional to the frontier's out-degree mass.

Its accounting, :meth:`DisaggregatedSimulator._account_split`, is the
all-fetch case of the per-part split the NDP pool shares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.base import ArchitectureSimulator, Charges, RunContext
from repro.arch.engine import IterationProfile
from repro.arch.results import IterationStats
from repro.kernels.base import VERTEX_ID_BYTES
from repro.net.link import LinkClass
from repro.obs.metrics import M
from repro.obs.span import CATEGORY_PHASE
from repro.partition.base import ProfileScratch, distinct_pairs
from repro.runtime.cost_model import edge_record_bytes, frontier_push_bytes


class DisaggregatedSimulator(ArchitectureSimulator):
    """Compute pool + passive remote memory pool."""

    name = "disaggregated"
    has_near_memory_acceleration = False
    is_disaggregated = True
    #: re-replication streams pool-node to pool-node through the switch;
    #: the host links never see it (resource independence, Section II)
    recovery_link_class = LinkClass.MEMORY_LINK

    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        return self._account_split(profile, ctx, None, False)

    def _account_split(
        self,
        profile: IterationProfile,
        ctx: RunContext,
        mask: Optional[np.ndarray],
        inc_enabled: bool,
    ) -> IterationStats:
        """Account one iteration under the executed offload ``mask``.

        Shards in ``mask`` get the frontier's properties, traverse near-data
        and ship one partial per destination (merged by the switch under
        INC); the others stream their edges to the hosts, which reshuffle
        the updates when C > 1.  ``mask=None``: no shard offloads.  Only a
        mixed mask indexes per part; a uniform one reads profile totals.
        """
        kernel = ctx.kernel
        topo = ctx.topology
        compute = kernel.compute
        eb = edge_record_bytes(kernel)
        wire = kernel.message.wire_bytes
        num_parts = ctx.assignment.num_parts
        offloaded = 0 if mask is None else int(np.count_nonzero(mask))
        mixed = 0 < offloaded < num_parts
        if mixed:
            off_frontier_pp = profile.frontier_per_part[mask]
            pair_offloaded = mask[profile.pair_part]
            off = (
                int(off_frontier_pp.sum()),
                int(profile.edges_per_part[mask].sum()),
                int(np.count_nonzero(off_frontier_pp)),
                int(np.count_nonzero(pair_offloaded)),
            )
        else:
            whole = (
                profile.frontier_size,
                profile.edges_traversed,
                profile.active_parts,
                profile.partial_update_pairs,
            )
            off = whole if offloaded else (0, 0, 0, 0)
        off_frontier, off_edges, off_active, off_pairs = off
        charges = Charges(ctx.result.ledger)
        push_bytes = apply_in_bytes = request_bytes = fetch_bytes = shuffle_bytes = 0
        fetched_destinations = 0
        inc_ops = ndp_traverse = host_traverse = 0.0

        if offloaded:
            # Hosts push the frontier's current properties to the shard
            # owners (membership-only kernels ship compact ids or a bitmap).
            push_bytes = frontier_push_bytes(
                kernel,
                off_frontier,
                num_vertices=ctx.graph.num_vertices,
                num_parts=offloaded,
            )
            charges.record(
                "frontier-push",
                LinkClass.HOST_LINK,
                push_bytes,
                max(off_active, 1) if off_frontier else 0,
            )
            # Traversal runs inside the pool: edge bytes never cross the network.
            charges.record(
                "traverse",
                LinkClass.NDP_INTERNAL,
                eb * off_edges,
                off_active,
                label="traverse-internal",
            )
            if inc_enabled:
                if mixed:
                    _, fanin = np.unique(
                        profile.pair_dst[pair_offloaded], return_counts=True
                    )
                    partials = profile.partials_per_part[mask]
                else:
                    fanin = profile.updates_per_destination
                    partials = profile.partials_per_part
                with ctx.tracer.span("aggregate", category=CATEGORY_PHASE) as agg_span:
                    outcome = topo.switch.aggregate(partials, fanin, int(fanin.size), wire)
                    agg_span.set_attrs(
                        updates_in=outcome.updates_in,
                        updates_out=outcome.updates_out,
                        bytes_in=outcome.bytes_in,
                        bytes_out=outcome.bytes_out,
                    )
                charges.record(
                    "apply-fanin", LinkClass.MEMORY_LINK, outcome.bytes_in, off_active
                )
                charges.record("apply", LinkClass.HOST_LINK, outcome.bytes_out)
                apply_in_bytes = outcome.bytes_out
                inc_ops = outcome.reduction_ops
                counters = ctx.result.counters
                counters.add(
                    M.INC_MERGED_UPDATES, outcome.updates_in - outcome.updates_out
                )
                counters.add(M.INC_PASSTHROUGH_UPDATES, outcome.passthrough_updates)
            else:
                # One partial update per (destination, memory node) pair.
                apply_in_bytes = wire * off_pairs
                charges.record("apply", LinkClass.HOST_LINK, apply_in_bytes, off_active)
            ndp_traverse = self._slowest_node_seconds(
                ctx.config.ndp_device,
                profile.edges_per_part * mask if mixed else profile.edges_per_part,
                compute.traverse_ops,
                eb,
            )

        if offloaded < num_parts:
            # Hosts ask each memory node for the adjacency of its frontier
            # slice; the memory nodes stream the requested edge lists back.
            fetch_frontier = profile.frontier_size - off_frontier
            fetch_edges = profile.edges_traversed - off_edges
            fetch_active = profile.active_parts - off_active
            request_bytes = VERTEX_ID_BYTES * fetch_frontier
            fetch_bytes = eb * fetch_edges
            charges.record(
                "edge-fetch-request",
                LinkClass.HOST_LINK,
                request_bytes,
                max(fetch_active, 1) if fetch_frontier else 0,
            )
            charges.record("edge-fetch", LinkClass.HOST_LINK, fetch_bytes, fetch_active)
            pair_fetched = ~pair_offloaded if mixed else None
            shuffle_bytes = self._host_shuffle_bytes(profile, ctx, pair_fetched)
            if shuffle_bytes:
                charges.record("host-shuffle", LinkClass.HOST_LINK, shuffle_bytes)
            host_traverse = self._host_shared_seconds(
                compute.traverse_ops(fetch_edges), fetch_bytes
            )
            # Host traversal reduces the fetched shards' updates per
            # destination before applying them.
            fetched_destinations = (
                int(np.unique(profile.pair_dst[pair_fetched]).size)
                if mixed
                else profile.distinct_destinations
            )

        # ---- timing ---------------------------------------------------- #
        apply_ops = compute.apply_ops(profile.touched.size)
        apply_seconds = self._host_shared_seconds(
            apply_ops, apply_in_bytes + wire * fetched_destinations
        )
        if inc_ops:
            apply_seconds += topo.switch.device.compute_seconds(inc_ops)
        # Offloaded shards send their partials up, fetched ones their edges.
        partials_pp = profile.partials_per_part
        if mixed:
            fanin_bytes = np.where(mask, wire * partials_pp, eb * profile.edges_per_part)
            fanin_messages = np.where(mask, partials_pp, profile.frontier_per_part)
        elif offloaded:
            fanin_bytes, fanin_messages = wire * partials_pp, partials_pp
        else:
            fanin_bytes = eb * profile.edges_per_part
            fanin_messages = profile.frontier_per_part
        active_parts = profile.active_parts
        fanin = topo.memory_fanin_seconds(fanin_bytes, fanin_messages > 0)
        fanout = topo.host_fanout_seconds(
            float(apply_in_bytes + fetch_bytes + shuffle_bytes), active_parts
        )
        # The compute nodes push frontier properties and edge requests out.
        push_seconds = topo.host_fanout_seconds(
            float(push_bytes + request_bytes), active_parts
        )
        return self._iteration_stats(
            profile,
            ctx,
            charges,
            offloaded=offloaded > 0,
            offloaded_parts=offloaded or -1,
            traverse_seconds=max(ndp_traverse, host_traverse),
            movement_seconds=push_seconds + max(fanin, fanout),
            apply_seconds=apply_seconds,
            sync_seconds=topo.barrier_seconds(self.num_compute_nodes()),
            traverse_ops=compute.traverse_ops(profile.edges_traversed),
            apply_ops=apply_ops,
        )

    def _host_shuffle_bytes(
        self,
        profile: IterationProfile,
        ctx: RunContext,
        fetched: Optional[np.ndarray] = None,
    ) -> int:
        """Bytes to reshuffle the fetched shards' updates between hosts (C > 1).

        Host ownership of properties follows the partition map round-robin
        (part ``p`` is served by host ``p % C``); an update produced while
        traversing part ``p``'s frontier slice must reach the host owning
        the destination's part.  ``fetched`` selects the profile's
        ``(destination, part)`` pairs whose part streamed its edges to the
        hosts; ``None`` means every pair did.
        """
        hosts = self.num_compute_nodes()
        if hosts <= 1 or profile.pair_dst.size == 0:
            return 0
        parts = ctx.assignment.parts
        src_host = profile.pair_part % hosts
        cross = src_host != parts[profile.pair_dst] % hosts
        if fetched is not None:
            cross &= fetched
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
