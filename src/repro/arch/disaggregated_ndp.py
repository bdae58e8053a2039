"""Disaggregated NDP architecture — this work (paper Fig. 1b).

Memory-pool nodes carry NDP devices (Table I's PNM/PIM tier) that execute
the traversal next to the edge lists: hosts push the frontier's properties
down (``prop_push_bytes`` per frontier vertex), each memory node traverses
its shard internally and locally reduces, then ships one partial update per
distinct destination it touched.  A programmable switch can additionally
merge partials across memory nodes (in-network aggregation, Section IV.C).

The per-iteration offload decision is pluggable (:mod:`repro.runtime.offload`):
with ``NeverOffload`` this simulator degenerates to the passive
disaggregated deployment, with ``DynamicCostPolicy`` it implements the
adaptive runtime the paper argues for (Section IV.D).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.base import RunContext
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.engine import IterationProfile
from repro.arch.results import IterationStats
from repro.errors import ConfigError
from repro.hardware.capabilities import check_offload
from repro.kernels.base import VERTEX_ID_BYTES
from repro.net.link import LinkClass
from repro.obs.metrics import M
from repro.obs.span import CATEGORY_PHASE
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import edge_record_bytes, frontier_push_bytes
from repro.runtime.offload import AlwaysOffload, IterationOutlook, OffloadPolicy


class DisaggregatedNDPSimulator(DisaggregatedSimulator):
    """Compute pool + NDP memory pool + optional in-network aggregation."""

    name = "disaggregated-ndp"
    has_near_memory_acceleration = True
    is_disaggregated = True

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        *,
        policy: Optional[OffloadPolicy] = None,
    ) -> None:
        super().__init__(config)
        if self.config.ndp_device is None:
            raise ConfigError(
                "disaggregated-ndp requires an ndp_device on the memory pool"
            )
        self.policy = policy or AlwaysOffload()
        #: the most recent iteration's decision record — mode, executed
        #: mask, denials, plus the policy's own explanation when it offers
        #: one; attached to the iteration span by _annotate_iteration_span.
        self._last_decision: Optional[dict] = None

    # ------------------------------------------------------------------ #

    def _annotate_iteration_span(self, span, stats: IterationStats) -> None:
        super()._annotate_iteration_span(span, stats)
        record = self._last_decision
        if record is not None and record.get("iteration") == stats.iteration:
            span.set_attrs(policy=self.policy.name, decision=dict(record))

    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        ctx_switch = ctx.topology.switch
        inc_enabled = bool(ctx.config.enable_inc and ctx_switch is not None)
        outlook = self._outlook(profile, ctx)

        capability = check_offload(ctx.kernel, ctx.config.ndp_device, phase="traverse")
        mask = self.policy.decide_per_part(
            ctx.kernel, outlook, switch=ctx_switch, inc_enabled=inc_enabled
        )
        if mask is None:
            offload = self.policy.decide(
                ctx.kernel, outlook, switch=ctx_switch, inc_enabled=inc_enabled
            )
            mask = np.full(ctx.assignment.num_parts, offload)
        else:
            mask = np.asarray(mask, dtype=bool)
        denied_capability = 0
        denied_fault = 0
        if mask.any() and not capability.allowed:
            ctx.result.counters.add(M.OFFLOAD_DENIED_CAPABILITY)
            denied_capability = int(mask.sum())
            mask = np.zeros_like(mask)
        if ctx.faults is not None:
            # Graceful degradation: shards whose NDP device is down fall
            # back to host fetch — their edges stream over the network while
            # the healthy shards keep offloading.
            down = ctx.faults.ndp_down_mask(profile.iteration)
            denied = mask & down
            if denied.any():
                ctx.result.counters.add(M.OFFLOAD_DENIED_FAULT, int(denied.sum()))
                denied_fault = int(denied.sum())
                mask = mask & ~down

        # Feed the realized counts back to adaptive policies (a real runtime
        # sees the update buffers at the end of every iteration).
        self.policy.observe(
            outlook,
            partial_pairs=profile.partial_update_pairs,
            distinct_destinations=profile.distinct_destinations,
        )
        if not mask.any():
            ctx.result.counters.add(M.ITERATIONS_FETCH)
            mode = "fetch"
            stats = self._account_fetch(profile, ctx, offloaded=False)
        elif mask.all():
            ctx.result.counters.add(M.ITERATIONS_OFFLOAD)
            mode = "offload"
            stats = self._account_offload(profile, ctx, inc_enabled=inc_enabled)
        else:
            ctx.result.counters.add(M.ITERATIONS_MIXED)
            mode = "mixed"
            stats = self._account_mixed(profile, ctx, mask, inc_enabled=inc_enabled)

        # Byte-level feedback: hand the policy the exact ledger bytes this
        # iteration moved, against the mask that actually executed (post
        # capability/fault denials).
        updated = self.policy.observe_bytes(
            outlook,
            host_link_bytes=float(stats.host_link_bytes),
            network_bytes=float(stats.network_bytes),
            offloaded_mask=mask,
        )
        if updated:
            ctx.result.counters.add(M.POLICY_CALIBRATION_UPDATES)

        decision = {
            "iteration": profile.iteration,
            "mode": mode,
            "offloaded_parts": int(mask.sum()),
            "num_parts": int(ctx.assignment.num_parts),
            "denied_capability": denied_capability,
            "denied_fault": denied_fault,
        }
        explanation = self.policy.last_decision
        if explanation is not None and explanation.get("iteration") == profile.iteration:
            decision.update(explanation)
        prev = self._last_decision
        if (
            prev is not None
            and prev.get("mode") != mode
            and prev.get("iteration") == profile.iteration - 1
        ):
            ctx.result.counters.add(M.POLICY_DECISION_FLIPS)
            decision["flipped"] = True
        self._last_decision = decision
        return stats

    # ------------------------------------------------------------------ #

    def _outlook(self, profile: IterationProfile, ctx: RunContext) -> IterationOutlook:
        """Pre-iteration knowledge handed to the offload policy.

        The structural counts (frontier size, degree mass per part) are
        computable before the iteration in a real runtime; the exact fields
        are filled too because the simulator knows them — only oracle
        policies read those.
        """
        return IterationOutlook(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            num_vertices=ctx.graph.num_vertices,
            num_parts=ctx.assignment.num_parts,
            edges_per_part=profile.edges_per_part,
            frontier_per_part=profile.frontier_per_part,
            failed_parts=(
                ctx.faults.ndp_down_mask(profile.iteration)
                if ctx.faults is not None
                else None
            ),
            exact_partial_pairs=profile.partial_update_pairs,
            exact_distinct_destinations=profile.distinct_destinations,
            exact_updates_per_destination=profile.updates_per_destination,
            exact_partials_per_part=profile.partials_per_part,
        )

    def _account_offload(
        self, profile: IterationProfile, ctx: RunContext, *, inc_enabled: bool
    ) -> IterationStats:
        kernel = ctx.kernel
        ledger = ctx.result.ledger
        topo = ctx.topology
        device = ctx.config.ndp_device
        eb = edge_record_bytes(kernel)
        wire = kernel.message.wire_bytes
        bytes_by_phase: dict[str, int] = {}

        # Hosts push the frontier's current properties to the shard owners
        # (membership-only kernels ship compact ids or a bitmap instead).
        push_bytes = frontier_push_bytes(
            kernel,
            profile.frontier_size,
            num_vertices=ctx.graph.num_vertices,
            num_parts=ctx.assignment.num_parts,
        )
        active_parts = profile.active_parts
        ledger.record(
            "frontier-push", LinkClass.HOST_LINK, push_bytes, max(active_parts, 1) if profile.frontier_size else 0
        )
        bytes_by_phase["frontier-push"] = push_bytes

        # Traversal runs inside the pool: edge bytes never cross the network.
        internal_bytes = eb * profile.edges_traversed
        ledger.record("traverse", LinkClass.NDP_INTERNAL, internal_bytes, active_parts)
        bytes_by_phase["traverse-internal"] = internal_bytes

        # Partial updates: one per (destination, memory node) pair.
        partial_bytes = wire * profile.partial_update_pairs
        inc_ops = 0.0
        if inc_enabled and topo.switch is not None:
            with ctx.tracer.span("aggregate", category=CATEGORY_PHASE) as agg_span:
                outcome = topo.switch.aggregate(
                    profile.partials_per_part,
                    profile.updates_per_destination,
                    profile.distinct_destinations,
                    wire,
                )
                agg_span.set_attrs(
                    updates_in=outcome.updates_in,
                    updates_out=outcome.updates_out,
                    bytes_in=outcome.bytes_in,
                    bytes_out=outcome.bytes_out,
                )
            ledger.record(
                "apply-fanin",
                LinkClass.MEMORY_LINK,
                outcome.bytes_in,
                active_parts,
            )
            ledger.record("apply", LinkClass.HOST_LINK, outcome.bytes_out)
            bytes_by_phase["apply-fanin"] = outcome.bytes_in
            bytes_by_phase["apply"] = outcome.bytes_out
            apply_in_bytes = outcome.bytes_out
            inc_ops = outcome.reduction_ops
            ctx.result.counters.add(M.INC_MERGED_UPDATES, outcome.updates_in - outcome.updates_out)
            ctx.result.counters.add(M.INC_PASSTHROUGH_UPDATES, outcome.passthrough_updates)
        else:
            ledger.record("apply", LinkClass.HOST_LINK, partial_bytes, active_parts)
            bytes_by_phase["apply"] = partial_bytes
            apply_in_bytes = partial_bytes

        # ---- timing ---------------------------------------------------- #
        traverse_ops = kernel.compute.traverse_ops(profile.edges_traversed)
        ops_per_part = kernel.compute.traverse_flops_per_edge * profile.edges_per_part
        ops_per_part = ops_per_part + kernel.compute.traverse_intops_per_edge * profile.edges_per_part
        traverse_seconds = self._per_part_compute_seconds(
            device, ops_per_part, eb * profile.edges_per_part
        )
        apply_ops = kernel.compute.apply_ops(profile.touched.size)
        apply_seconds = self._host_shared_seconds(apply_ops, apply_in_bytes)
        if inc_ops and topo.switch is not None:
            apply_seconds += topo.switch.device.compute_seconds(inc_ops)

        push_seconds = topo.host_push_seconds(
            float(push_bytes), max(active_parts, 1) if push_bytes else 0
        )
        fanin = topo.memory_fanin_seconds(
            wire * profile.partials_per_part,
            np.minimum(profile.partials_per_part, 1),
        )
        fanout = topo.host_fanout_seconds(float(apply_in_bytes), active_parts)
        movement_seconds = push_seconds + max(fanin, fanout)
        participants = self.num_compute_nodes()
        sync_seconds = topo.barrier_seconds(participants)

        host_bytes = push_bytes + apply_in_bytes
        network_bytes = host_bytes + bytes_by_phase.get("apply-fanin", 0)
        return IterationStats(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            distinct_destinations=profile.distinct_destinations,
            partial_update_pairs=profile.partial_update_pairs,
            cross_update_pairs=profile.cross_update_pairs(ctx.assignment.parts),
            changed_vertices=int(profile.changed.size),
            offloaded=True,
            host_link_bytes=host_bytes,
            network_bytes=network_bytes,
            bytes_by_phase=bytes_by_phase,
            traverse_seconds=traverse_seconds,
            movement_seconds=movement_seconds,
            apply_seconds=apply_seconds,
            sync_seconds=sync_seconds,
            traverse_ops=traverse_ops,
            apply_ops=apply_ops,
            sync_participants=participants,
            offloaded_parts=ctx.assignment.num_parts,
        )

    def _account_mixed(
        self,
        profile: IterationProfile,
        ctx: RunContext,
        mask: np.ndarray,
        *,
        inc_enabled: bool,
    ) -> IterationStats:
        """Hybrid iteration: some memory nodes offload, the rest serve fetches.

        Byte accounting is the per-part split of the two pure modes: the
        offloaded shards push frontier properties down and ship partial
        updates (optionally merged in-network), the remaining shards stream
        their slice of the frontier's edge lists to the hosts.
        """
        kernel = ctx.kernel
        ledger = ctx.result.ledger
        topo = ctx.topology
        device = ctx.config.ndp_device
        eb = edge_record_bytes(kernel)
        wire = kernel.message.wire_bytes
        bytes_by_phase: dict[str, int] = {}

        off_frontier = int(profile.frontier_per_part[mask].sum())
        off_edges = int(profile.edges_per_part[mask].sum())
        fetch_frontier = int(profile.frontier_per_part[~mask].sum())
        fetch_edges = int(profile.edges_per_part[~mask].sum())
        off_active = int(np.count_nonzero(profile.frontier_per_part[mask]))
        fetch_active = int(np.count_nonzero(profile.frontier_per_part[~mask]))

        # --- offloaded shards -------------------------------------------- #
        push_bytes = frontier_push_bytes(
            kernel,
            off_frontier,
            num_vertices=ctx.graph.num_vertices,
            num_parts=int(mask.sum()),
        )
        ledger.record(
            "frontier-push", LinkClass.HOST_LINK, push_bytes,
            max(off_active, 1) if push_bytes else 0,
        )
        bytes_by_phase["frontier-push"] = push_bytes
        internal_bytes = eb * off_edges
        ledger.record("traverse", LinkClass.NDP_INTERNAL, internal_bytes, off_active)
        bytes_by_phase["traverse-internal"] = internal_bytes

        pair_offloaded = mask[profile.pair_part]
        off_pairs = int(np.count_nonzero(pair_offloaded))
        if inc_enabled and topo.switch is not None and off_pairs:
            off_dst = profile.pair_dst[pair_offloaded]
            _, off_fanin = np.unique(off_dst, return_counts=True)
            with ctx.tracer.span("aggregate", category=CATEGORY_PHASE) as agg_span:
                outcome = topo.switch.aggregate(
                    profile.partials_per_part[mask],
                    off_fanin,
                    int(off_fanin.size),
                    wire,
                )
                agg_span.set_attrs(
                    updates_in=outcome.updates_in,
                    updates_out=outcome.updates_out,
                    bytes_in=outcome.bytes_in,
                    bytes_out=outcome.bytes_out,
                )
            ledger.record(
                "apply-fanin", LinkClass.MEMORY_LINK, outcome.bytes_in, off_active
            )
            ledger.record("apply", LinkClass.HOST_LINK, outcome.bytes_out)
            bytes_by_phase["apply-fanin"] = outcome.bytes_in
            bytes_by_phase["apply"] = outcome.bytes_out
            apply_in_bytes = outcome.bytes_out
        else:
            apply_in_bytes = wire * off_pairs
            ledger.record("apply", LinkClass.HOST_LINK, apply_in_bytes, off_active)
            bytes_by_phase["apply"] = apply_in_bytes

        # --- fetching shards ---------------------------------------------- #
        request_bytes = VERTEX_ID_BYTES * fetch_frontier
        fetch_bytes = eb * fetch_edges
        ledger.record(
            "edge-fetch-request", LinkClass.HOST_LINK, request_bytes,
            max(fetch_active, 1) if request_bytes else 0,
        )
        ledger.record("edge-fetch", LinkClass.HOST_LINK, fetch_bytes, fetch_active)
        bytes_by_phase["edge-fetch-request"] = request_bytes
        bytes_by_phase["edge-fetch"] = fetch_bytes

        # --- timing -------------------------------------------------------- #
        per_edge_ops = (
            kernel.compute.traverse_flops_per_edge
            + kernel.compute.traverse_intops_per_edge
        )
        ndp_traverse = self._per_part_compute_seconds(
            device,
            per_edge_ops * profile.edges_per_part * mask,
            eb * profile.edges_per_part * mask,
        )
        host_traverse = self._host_shared_seconds(
            per_edge_ops * fetch_edges, eb * fetch_edges
        )
        traverse_seconds = max(ndp_traverse, host_traverse)
        traverse_ops = kernel.compute.traverse_ops(profile.edges_traversed)
        apply_ops = kernel.compute.apply_ops(profile.touched.size)
        apply_seconds = self._host_shared_seconds(
            apply_ops, apply_in_bytes + fetch_bytes
        )
        push_seconds = topo.host_push_seconds(
            float(push_bytes + request_bytes),
            max(off_active + fetch_active, 1),
        )
        fanin = topo.memory_fanin_seconds(
            wire * profile.partials_per_part * mask
            + eb * profile.edges_per_part * ~mask,
            np.minimum(profile.frontier_per_part, 1),
        )
        fanout = topo.host_fanout_seconds(
            float(apply_in_bytes + fetch_bytes), off_active + fetch_active
        )
        movement_seconds = push_seconds + max(fanin, fanout)
        participants = self.num_compute_nodes()
        sync_seconds = topo.barrier_seconds(participants)

        host_bytes = push_bytes + apply_in_bytes + request_bytes + fetch_bytes
        network_bytes = host_bytes + bytes_by_phase.get("apply-fanin", 0)
        return IterationStats(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            distinct_destinations=profile.distinct_destinations,
            partial_update_pairs=profile.partial_update_pairs,
            cross_update_pairs=profile.cross_update_pairs(ctx.assignment.parts),
            changed_vertices=int(profile.changed.size),
            offloaded=True,
            host_link_bytes=host_bytes,
            network_bytes=network_bytes,
            bytes_by_phase=bytes_by_phase,
            traverse_seconds=traverse_seconds,
            movement_seconds=movement_seconds,
            apply_seconds=apply_seconds,
            sync_seconds=sync_seconds,
            traverse_ops=traverse_ops,
            apply_ops=apply_ops,
            sync_participants=participants,
            offloaded_parts=int(mask.sum()),
        )
