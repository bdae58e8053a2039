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
from repro.obs.metrics import M
from repro.runtime.config import SystemConfig
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
        mask = np.full(
            ctx.assignment.num_parts,
            self.policy.decide(
                ctx.kernel, outlook, switch=ctx_switch, inc_enabled=inc_enabled
            ),
            dtype=bool,
        )
        offloaded = int(np.count_nonzero(mask))
        denied_capability = denied_fault = 0
        if offloaded and not capability.allowed:
            ctx.result.counters.add(M.OFFLOAD_DENIED_CAPABILITY)
            denied_capability = offloaded
            mask = np.zeros_like(mask)
            offloaded = 0
        if ctx.faults is not None:
            # Graceful degradation: shards whose NDP device is down fall
            # back to host fetch — their edges stream over the network while
            # the healthy shards keep offloading.
            down = ctx.faults.ndp_down_mask(profile.iteration)
            denied_fault = int(np.count_nonzero(mask & down))
            if denied_fault:
                ctx.result.counters.add(M.OFFLOAD_DENIED_FAULT, denied_fault)
                mask = mask & ~down
                offloaded -= denied_fault

        if offloaded == 0:
            ctx.result.counters.add(M.ITERATIONS_FETCH)
            mode = "fetch"
        elif offloaded == ctx.assignment.num_parts:
            ctx.result.counters.add(M.ITERATIONS_OFFLOAD)
            mode = "offload"
        else:
            ctx.result.counters.add(M.ITERATIONS_MIXED)
            mode = "mixed"
        stats = self._account_split(profile, ctx, mask, inc_enabled)

        # Feed back what a real runtime sees at the end of the iteration:
        # the realized update counts and the exact ledger bytes, against
        # the mask that actually executed (post capability/fault denials).
        if self.policy.observe(
            outlook,
            partial_pairs=profile.partial_update_pairs,
            distinct_destinations=profile.distinct_destinations,
            host_link_bytes=float(stats.host_link_bytes),
            offloaded_mask=mask,
        ):
            ctx.result.counters.add(M.POLICY_CALIBRATION_UPDATES)

        decision = {
            "iteration": profile.iteration,
            "mode": mode,
            "offloaded_parts": offloaded,
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
