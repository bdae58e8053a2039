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

from repro.arch.base import ArchitectureSimulator, Charges, RunContext
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
        topo = ctx.topology
        eb = edge_record_bytes(kernel)
        wire = kernel.message.wire_bytes
        parts = ctx.assignment.parts
        charges = Charges(ctx.result.ledger)

        # Traversal reads each node's own shard: local DRAM only.
        charges.record(
            "traverse",
            LinkClass.NODE_LOCAL,
            eb * profile.edges_traversed,
            label="traverse-local",
        )

        # Apply phase: mirrors ship their reduced partial updates to masters.
        active_parts = profile.partial_active_parts
        charges.record(
            "apply",
            LinkClass.HOST_LINK,
            wire * profile.cross_update_pairs(parts),
            active_parts,
        )

        # Traversal phase (next iteration's inputs): changed masters
        # broadcast their new values to every mirror.
        charges.record(
            "broadcast",
            LinkClass.HOST_LINK,
            kernel.prop_push_bytes * profile.changed_mirror_pairs,
            int(profile.changed.size > 0),
        )

        # ---- timing ---------------------------------------------------- #
        device = self._compute_device()
        profile_ops = kernel.compute
        traverse_seconds = self._slowest_node_seconds(
            device, profile.edges_per_part, profile_ops.traverse_ops, eb
        )
        # Updates apply on the owners; model the worst-loaded owner.
        apply_ops = profile_ops.apply_ops(profile.touched.size)
        owner_updates = profile.updates_per_owner(parts, ctx.assignment.num_parts)
        apply_seconds = self._slowest_node_seconds(
            device, owner_updates, profile_ops.apply_ops, wire
        )

        comm_bytes = charges.host_link_bytes
        movement_seconds = self._exposed_communication(
            topo.host_fanout_seconds(
                float(comm_bytes), max(active_parts, 1) if comm_bytes else 0
            ),
            traverse_seconds + apply_seconds,
        )
        return self._iteration_stats(
            profile,
            ctx,
            charges,
            offloaded=self.has_near_memory_acceleration,
            traverse_seconds=traverse_seconds,
            movement_seconds=movement_seconds,
            apply_seconds=apply_seconds,
            # Two sync points per iteration: after traversal, after apply (Fig. 2).
            sync_seconds=2.0 * topo.barrier_seconds(self.num_compute_nodes()),
            traverse_ops=profile_ops.traverse_ops(profile.edges_traversed),
            apply_ops=apply_ops,
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
