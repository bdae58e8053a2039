"""Distributed architecture — Gluon-style master/mirror clusters (Fig. 2).

Every node is a general-purpose server holding one graph partition (both
the vertex masters it owns and their edge lists).  Traversal is node-local;
communication is the master/mirror synchronization the paper describes:
mirrors push reduced partial updates to masters in the apply phase, and
masters broadcast their changed values back to all mirrors in the next
traversal phase.  All N nodes participate in every barrier — the "High"
synchronization overhead row of Table II.
"""

from __future__ import annotations

from repro.arch.base import ArchitectureSimulator, RunContext
from repro.arch.engine import IterationProfile
from repro.arch.results import IterationStats
from repro.net.link import LinkClass
from repro.runtime.cost_model import edge_record_bytes


class DistributedSimulator(ArchitectureSimulator):
    """Homogeneous cluster of coupled compute+memory nodes."""

    name = "distributed"
    has_near_memory_acceleration = False
    is_disaggregated = False
    needs_mirrors = True

    def num_compute_nodes(self) -> int:
        # Compute runs on every partition node; there is no separate pool.
        return self.num_partitions()

    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        kernel = ctx.kernel
        ledger = ctx.result.ledger
        topo = ctx.topology
        eb = edge_record_bytes(kernel)
        wire = kernel.message.wire_bytes
        parts = ctx.assignment.parts
        bytes_by_phase: dict[str, int] = {}

        # Traversal reads each node's own shard: local DRAM only.
        local_bytes = eb * profile.edges_traversed
        ledger.record("traverse", LinkClass.NODE_LOCAL, local_bytes)
        bytes_by_phase["traverse-local"] = local_bytes

        # Apply phase: mirrors ship their reduced partial updates to masters.
        cross_pairs = profile.cross_update_pairs(parts)
        update_bytes = wire * cross_pairs
        active_parts = profile.partial_active_parts
        ledger.record("apply", LinkClass.HOST_LINK, update_bytes, active_parts)
        bytes_by_phase["apply"] = update_bytes

        # Traversal phase (next iteration's inputs): changed masters
        # broadcast their new values to every mirror.
        broadcast_bytes = kernel.prop_push_bytes * profile.changed_mirror_pairs
        ledger.record(
            "broadcast",
            LinkClass.HOST_LINK,
            broadcast_bytes,
            int(profile.changed.size > 0),
        )
        bytes_by_phase["broadcast"] = broadcast_bytes

        # ---- timing ---------------------------------------------------- #
        device = self._compute_device()
        profile_ops = kernel.compute
        ops_per_part = (
            profile_ops.traverse_flops_per_edge + profile_ops.traverse_intops_per_edge
        ) * profile.edges_per_part
        traverse_seconds = self._per_part_compute_seconds(
            device, ops_per_part, eb * profile.edges_per_part
        )
        traverse_ops = profile_ops.traverse_ops(profile.edges_traversed)
        # Updates apply on the owners; model the worst-loaded owner.
        apply_ops = profile_ops.apply_ops(profile.touched.size)
        if profile.touched.size:
            owner_updates = profile.updates_per_owner(
                parts, ctx.assignment.num_parts
            )
            apply_seconds = self._per_part_compute_seconds(
                device,
                (profile_ops.apply_flops_per_update + profile_ops.apply_intops_per_update)
                * owner_updates,
                wire * owner_updates,
            )
        else:
            apply_seconds = 0.0

        comm_bytes = update_bytes + broadcast_bytes
        movement_seconds = topo.host_fanout_seconds(
            float(comm_bytes), max(active_parts, 1) if comm_bytes else 0
        )
        movement_seconds = self._exposed_communication(
            movement_seconds, traverse_seconds + apply_seconds
        )
        participants = self.num_compute_nodes()
        # Two sync points per iteration: after traversal, after apply (Fig. 2).
        sync_seconds = 2.0 * topo.barrier_seconds(participants)

        host_bytes = update_bytes + broadcast_bytes
        return IterationStats(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            distinct_destinations=profile.distinct_destinations,
            partial_update_pairs=profile.partial_update_pairs,
            cross_update_pairs=cross_pairs,
            changed_vertices=int(profile.changed.size),
            offloaded=self.has_near_memory_acceleration,
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

    def _crash_extra_state_bytes(self, event, ctx: RunContext) -> int:
        """A replacement node must also repopulate its mirror cache.

        Mirrors are derived state — the masters re-broadcast their current
        values to the mirrors hosted on the recovering part
        (``prop_push_bytes`` each), on top of the shard itself.
        """
        if ctx.mirror_table is None:
            return 0
        mirrors = int(ctx.mirror_table.mirrors_per_part()[event.part])
        return ctx.kernel.prop_push_bytes * mirrors

    # ------------------------------------------------------------------ #
    # Hooks the NDP subclass overrides
    # ------------------------------------------------------------------ #

    def _compute_device(self):
        """Device executing the node-local phases."""
        return self.config.host_device

    def _exposed_communication(self, comm_seconds: float, compute_seconds: float) -> float:
        """General-purpose cluster: communication is fully exposed."""
        return comm_seconds
