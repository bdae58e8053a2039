"""Architecture simulator base: the accounting loop and its context.

A simulator takes each iteration's structural profile from the shared
engine (identical numerics everywhere, see :mod:`repro.arch.trace`) and
translates it into movement bytes and modeled phase times according to its
architecture's placement rules.  :meth:`ArchitectureSimulator.run` feeds
the accounting loop live from the engine loop, ``replay`` from a recorded
trace.  Subclasses implement a single hook,
:meth:`ArchitectureSimulator._account`.
"""

from __future__ import annotations

import abc
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import FaultError, RecoveryError, SimulationError
from repro.obs.metrics import M
from repro.obs.span import (
    CATEGORY_PHASE,
    CATEGORY_RUN,
    NOOP_SPAN,
    NOOP_TRACER,
    get_tracer,
)
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.recovery import FaultRuntime, FaultsLike, as_schedule
from repro.graph.csr import CSRGraph
from repro.kernels.base import VertexProgram
from repro.net.link import LinkClass
from repro.net.topology import ClusterTopology
from repro.partition.base import PartitionAssignment, Partitioner
from repro.partition.mirrors import MirrorTable
from repro.arch.engine import IterationProfile
from repro.arch.results import IterationStats, RunResult
from repro.arch.trace import (
    ExecutionTrace,
    IterationStream,
    engine_iterations,
    prepare_trace,
    recorded_iterations,
)
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import edge_record_bytes
from repro.telemetry.movement import NETWORK_CLASSES, MovementLedger, is_recovery_phase
from repro.utils.rng import SeedLike


@dataclass
class RunContext:
    """Everything the per-iteration accounting hook needs."""

    graph: CSRGraph
    kernel: VertexProgram
    assignment: PartitionAssignment
    mirror_table: Optional[MirrorTable]
    topology: ClusterTopology
    config: SystemConfig
    result: RunResult
    #: per-run fault state; ``None`` on the (bit-identical) fault-free path
    faults: Optional[FaultRuntime] = None
    #: active span tracer (the disabled :data:`NOOP_TRACER` by default);
    #: accounting hooks may emit phase spans/events through it
    tracer: Any = field(default=NOOP_TRACER)


class Charges:
    """The transfers of one iteration (or one fault boundary).

    :meth:`record` is the one way ``arch/`` charges bytes to a link: it
    writes the run ledger and ``bytes_by_phase`` (under ``label`` if given),
    and derives the totals with the ledger's own definitions — host-link
    bytes on ``HOST_LINK``, network bytes on :data:`NETWORK_CLASSES`,
    recovery bytes in :func:`is_recovery_phase` phases on every link.
    """

    def __init__(self, ledger: MovementLedger) -> None:
        self.ledger = ledger
        self.bytes_by_phase: Dict[str, int] = {}
        self.host_link_bytes = 0
        self.network_bytes = 0
        self.recovery_bytes = 0

    def record(
        self,
        phase: str,
        link: LinkClass,
        nbytes: int,
        messages: int = 1,
        label: Optional[str] = None,
    ) -> None:
        """Charge one transfer of ``nbytes`` in ``messages`` to ``link``."""
        nbytes = int(nbytes)
        self.ledger.record(phase, link, nbytes, messages)
        key = label or phase
        self.bytes_by_phase[key] = self.bytes_by_phase.get(key, 0) + nbytes
        if link is LinkClass.HOST_LINK:
            self.host_link_bytes += nbytes
        if link in NETWORK_CLASSES:
            self.network_bytes += nbytes
        if is_recovery_phase(phase):
            self.recovery_bytes += nbytes

    def added_to(self, stats: IterationStats, seconds: float) -> IterationStats:
        """``stats`` with these transfers (taking ``seconds``) added."""
        return replace(
            stats,
            host_link_bytes=stats.host_link_bytes + self.host_link_bytes,
            network_bytes=stats.network_bytes + self.network_bytes,
            bytes_by_phase={**stats.bytes_by_phase, **self.bytes_by_phase},
            recovery_bytes=stats.recovery_bytes + self.recovery_bytes,
            recovery_seconds=stats.recovery_seconds + seconds,
        )


class ArchitectureSimulator(abc.ABC):
    """Base class for the four Table II architectures."""

    #: registry name, e.g. ``"disaggregated-ndp"``
    name: str = "abstract"
    #: Table II columns (class-level, architecture-intrinsic)
    has_near_memory_acceleration: bool = False
    is_disaggregated: bool = False
    #: whether runs build and account master/mirror structures
    needs_mirrors: bool = False

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: CSRGraph,
        kernel: VertexProgram,
        *,
        partitioner: Optional[Partitioner] = None,
        assignment: Optional[PartitionAssignment] = None,
        source: Optional[int] = None,
        max_iterations: Optional[int] = None,
        graph_name: str = "graph",
        seed: SeedLike = 0,
        faults: FaultsLike = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> RunResult:
        """Execute ``kernel`` on ``graph`` under this architecture.

        Parameters
        ----------
        partitioner / assignment:
            how the graph is spread over the partition nodes; pass one or
            neither (default: hash partitioning).  An explicit assignment
            must cover the *prepared* graph (same vertex count as input).
        source:
            source vertex for rooted kernels (BFS/SSSP).
        max_iterations:
            cap overriding the kernel's own default.
        faults / checkpoint:
            optional fault schedule (or :class:`~repro.faults.FaultSpec`)
            injected at iteration boundaries, and the checkpoint policy
            whose bytes are accounted alongside recovery traffic.  Faults
            never change the kernel numerics — only the accounting.
        """
        trace = prepare_trace(
            graph,
            kernel,
            num_parts=self.num_partitions(),
            partitioner=partitioner,
            assignment=assignment,
            source=source,
            graph_name=graph_name,
            seed=seed,
            with_mirrors=self.needs_mirrors,
        )
        iterations = engine_iterations(
            trace,
            max_iterations=max_iterations,
            memory_budget_bytes=self.config.memory_budget_bytes,
        )
        return self._account_trace(
            trace,
            iterations,
            mode="run",
            graph_name=graph_name,
            faults=faults,
            checkpoint=checkpoint,
        )

    def _annotate_iteration_span(self, span, stats: IterationStats) -> None:
        """Attach the accounting facts to a finished iteration's span."""
        span.set_attrs(
            iteration=stats.iteration,
            architecture=self.name,
            frontier_size=stats.frontier_size,
            edges=stats.edges_traversed,
            offloaded=stats.offloaded,
            host_link_bytes=stats.host_link_bytes,
            network_bytes=stats.network_bytes,
            recovery_bytes=stats.recovery_bytes,
            bytes_by_phase=dict(stats.bytes_by_phase),
            modeled_seconds=stats.iteration_seconds,
        )

    def _annotate_run_span(self, span, result: RunResult) -> None:
        """Attach whole-run totals to the run span."""
        span.set_attrs(
            iterations=result.num_iterations,
            converged=result.converged,
            total_host_link_bytes=result.total_host_link_bytes,
            total_network_bytes=result.total_network_bytes,
            total_recovery_bytes=result.total_recovery_bytes,
            modeled_seconds=result.total_seconds,
        )

    def replay(
        self,
        trace: ExecutionTrace,
        *,
        graph_name: Optional[str] = None,
        faults: FaultsLike = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> RunResult:
        """Account a recorded :class:`~repro.arch.trace.ExecutionTrace`.

        Replays each recorded iteration profile through this architecture's
        ``_account`` hook without re-executing the kernel numerics — the
        paper's "run once, account what each deployment would have moved".
        The returned :class:`RunResult` is bit-identical to what
        :meth:`run` produces for the same workload; its ``final_state`` is
        the trace's (shared across every replaying simulator).  ``faults``
        and ``checkpoint`` behave exactly as in :meth:`run` — faults only
        touch the accounting, so they compose naturally with replay.
        """
        num_parts = self.num_partitions()
        if trace.assignment.num_parts != num_parts:
            raise SimulationError(
                f"trace was recorded with {trace.assignment.num_parts} parts, "
                f"architecture is configured for {num_parts}"
            )
        if self.needs_mirrors and trace.mirror_table is None:
            raise SimulationError(
                f"{self.name} needs master/mirror structures; record the "
                "trace with with_mirrors=True"
            )
        return self._account_trace(
            trace,
            recorded_iterations(trace),
            mode="replay",
            graph_name=graph_name if graph_name is not None else trace.graph_name,
            faults=faults,
            checkpoint=checkpoint,
        )

    def _account_trace(
        self,
        trace: ExecutionTrace,
        iterations: IterationStream,
        *,
        mode: str,
        graph_name: str,
        faults: FaultsLike,
        checkpoint: Optional[CheckpointPolicy],
    ) -> RunResult:
        """The accounting loop behind :meth:`run` and :meth:`replay`.

        ``iterations`` comes live from the engine or from a recording; it
        is closed on every exit, so a failed step leaves no span open.
        """
        kernel = trace.kernel
        self._check_capability(kernel)
        num_parts = self.num_partitions()
        result = RunResult(
            architecture=self.name,
            kernel=kernel.name,
            graph_name=graph_name,
            num_parts=num_parts,
            num_compute_nodes=self.num_compute_nodes(),
            kernel_program=kernel,
        )
        tracer = get_tracer()
        ctx = RunContext(
            graph=trace.graph,
            kernel=kernel,
            assignment=trace.assignment,
            mirror_table=trace.mirror_table if self.needs_mirrors else None,
            topology=self.config.topology(),
            config=self.config,
            result=result,
            faults=self._fault_runtime(faults, checkpoint, num_parts),
            tracer=tracer,
        )
        with tracer.span(
            "run",
            category=CATEGORY_RUN,
            architecture=self.name,
            kernel=kernel.name,
            graph=graph_name,
            parts=num_parts,
            mode=mode,
        ) as run_span, closing(iterations):
            for profile, it_span in iterations:
                stats = self._account_iteration(profile, ctx)
                if tracer.enabled:
                    self._annotate_iteration_span(it_span, stats)
                result.iterations.append(stats)
            result.converged = trace.converged
            if tracer.enabled:
                self._annotate_run_span(run_span, result)

        counters = result.counters
        counters.add(M.ENGINE_PEAK_TRACKED_BYTES, trace.peak_tracked_bytes)
        counters.add(M.ENGINE_EDGE_BLOCKS, trace.edge_blocks)
        counters.add(M.ENGINE_STREAMED_ITERATIONS, trace.streamed_iterations)
        result.final_state = trace.final_state
        return result

    # ------------------------------------------------------------------ #
    # Architecture hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _account(self, profile: IterationProfile, ctx: RunContext) -> IterationStats:
        """Translate one iteration's profile into movement and timing."""

    def _check_capability(self, kernel: VertexProgram) -> None:
        """Raise if this architecture cannot execute ``kernel`` at all;
        runs before any iteration.  Every kernel is accepted by default."""

    # ------------------------------------------------------------------ #
    # Fault injection and recovery accounting
    # ------------------------------------------------------------------ #

    #: link class carrying shard re-replication traffic: pool-internal for
    #: disaggregated architectures, node-to-node host links for coupled ones
    recovery_link_class: LinkClass = LinkClass.HOST_LINK
    #: coupled NDP clusters have no host fallback inside a node, so a failed
    #: accelerator takes the whole node's shard out of service (crash
    #: semantics); everywhere else the node's DRAM stays reachable
    ndp_failure_is_fatal: bool = False

    @staticmethod
    def _fault_runtime(
        faults: FaultsLike,
        checkpoint: Optional[CheckpointPolicy],
        num_parts: int,
    ) -> Optional[FaultRuntime]:
        """Per-run fault state, or ``None`` for the fault-free fast path."""
        schedule = as_schedule(faults)
        if schedule is None and checkpoint is None:
            return None
        return FaultRuntime(schedule, num_parts=num_parts, checkpoint=checkpoint)

    def _account_iteration(
        self, profile: IterationProfile, ctx: RunContext
    ) -> IterationStats:
        """Account one iteration, injecting any faults due at its boundary.

        The fault-free path (``ctx.faults is None``) is exactly one
        ``_account`` call — bit-identical to pre-fault behaviour, which the
        trace-replay tests pin down.
        """
        runtime = ctx.faults
        if runtime is None:
            return self._wrapped_account(profile, ctx)

        events = runtime.begin_iteration(profile.iteration)
        counters = ctx.result.counters
        tracer = ctx.tracer
        recover_span = (
            tracer.span(
                "recover", category=CATEGORY_PHASE, fault_events=len(events)
            )
            if events
            else NOOP_SPAN
        )
        recovery = Charges(ctx.result.ledger)
        recovery_seconds = 0.0
        with recover_span:
            for event in events:
                counters.add(M.FAULT_EVENTS)
                fatal = event.kind is FaultKind.MEMORY_NODE_CRASH or (
                    event.kind is FaultKind.NDP_DEVICE_FAILURE
                    and self.ndp_failure_is_fatal
                )
                if fatal:
                    recovery_seconds += self._account_crash_recovery(
                        event, ctx, recovery
                    )
                elif event.kind is FaultKind.NDP_DEVICE_FAILURE:
                    # Device-down window is tracked by the runtime; the
                    # offload path consults it and falls back to host fetch
                    # (see DisaggregatedNDPSimulator._account).
                    counters.add(M.FAULT_NDP_FAILURES)
                elif event.kind is FaultKind.LINK_DEGRADATION:
                    counters.add(M.FAULT_LINK_DEGRADATIONS)

        if runtime.tracks_link_health:
            # Rebuild link state from the active windows every iteration so
            # expired degradations restore to full health.
            if runtime.pristine_topology is None:
                runtime.pristine_topology = ctx.topology
            ctx.topology = runtime.degraded_topology(
                profile.iteration, runtime.pristine_topology
            )

        stats = self._wrapped_account(profile, ctx)

        for event in events:
            if event.kind is not FaultKind.MESSAGE_DROP:
                continue
            counters.add(M.FAULT_MESSAGE_DROPS)
            lost = int(np.ceil(event.drop_fraction * stats.host_link_bytes))
            if lost:
                recovery.record("recovery-retransmit", LinkClass.HOST_LINK, lost)
                counters.add(M.RECOVERY_RETRANSMITTED_BYTES, lost)
                recovery_seconds += ctx.topology.host_link.transfer_seconds(
                    float(lost), 1
                )

        ck_bytes = runtime.checkpoint.bytes_at(
            profile.iteration,
            state_bytes=ctx.kernel.prop_push_bytes * ctx.graph.num_vertices,
            changed_bytes=ctx.kernel.message.wire_bytes * int(profile.changed.size),
        )
        if ck_bytes:
            recovery.record("checkpoint", LinkClass.HOST_LINK, ck_bytes)
            counters.add(M.CHECKPOINT_COUNT)
            counters.add(M.CHECKPOINT_BYTES, ck_bytes)
            recovery_seconds += ctx.topology.host_link.transfer_seconds(
                float(ck_bytes), 1
            )

        if not recovery.bytes_by_phase and recovery_seconds == 0.0:
            return stats
        if events:
            # The span closed before accounting ran; attributes are read at
            # export time, so attaching the final byte totals here is safe.
            recover_span.set_attrs(
                recovery_bytes=recovery.recovery_bytes,
                recovery_seconds=recovery_seconds,
            )
        else:
            # Checkpoint- or drop-only boundary (no fault events): instant.
            tracer.event(
                "recover",
                category=CATEGORY_PHASE,
                fault_events=0,
                recovery_bytes=recovery.recovery_bytes,
                recovery_seconds=recovery_seconds,
            )
        return recovery.added_to(stats, recovery_seconds)

    def _wrapped_account(
        self, profile: IterationProfile, ctx: RunContext
    ) -> IterationStats:
        """Run ``_account`` with structured error context attached."""
        try:
            return self._account(profile, ctx)
        except SimulationError as exc:
            exc.context.setdefault("iteration", profile.iteration)
            exc.context.setdefault("architecture", self.name)
            raise

    def _account_crash_recovery(
        self, event: FaultEvent, ctx: RunContext, recovery: Charges
    ) -> float:
        """Charge restoring a crashed node's shard; returns its seconds.

        With a replicated pool (``replication_factor >= 2``) survivors stream
        the shard over :attr:`recovery_link_class`; otherwise the hosts
        rebuild it from source storage and push it down (host link, plus the
        pool leg on disaggregated deployments; both legs are recovery
        traffic).  NDP-equipped targets additionally re-ingest the shard
        through the device (internal traffic).
        """
        runtime = ctx.faults
        assert runtime is not None
        counters = ctx.result.counters
        topo = ctx.topology
        if event.part >= ctx.assignment.num_parts:
            raise FaultError(
                f"fault targets part {event.part}, run has only "
                f"{ctx.assignment.num_parts} parts"
            )
        if not runtime.has_shard_bytes:
            runtime.set_shard_bytes(self._shard_wire_bytes(ctx))
        shard = runtime.shard_bytes_of(event.part)
        shard += self._crash_extra_state_bytes(event, ctx)
        counters.add(M.FAULT_MEMORY_CRASHES)

        if runtime.schedule.replication_factor >= 2:
            if ctx.assignment.num_parts < 2:
                raise RecoveryError(
                    "cannot re-replicate from survivors: the pool has a "
                    "single node (all replicas were co-located)"
                )
            link = (
                topo.memory_link
                if self.recovery_link_class is LinkClass.MEMORY_LINK
                else topo.host_link
            )
            recovery.record("recovery-rereplicate", self.recovery_link_class, shard)
            counters.add(M.RECOVERY_REREPLICATED_BYTES, shard)
            seconds = link.transfer_seconds(float(shard), 1)
        else:
            # Rebuild-from-source: the read from durable storage is outside
            # the modeled system; what crosses it is the push back down.
            recovery.record("recovery-rebuild", LinkClass.HOST_LINK, shard)
            counters.add(M.RECOVERY_REBUILT_BYTES, shard)
            seconds = topo.host_link.transfer_seconds(float(shard), 1)
            if self.is_disaggregated:
                # The shard also traverses the switch -> pool-node leg.
                recovery.record("recovery-rebuild", LinkClass.MEMORY_LINK, shard)
                seconds = max(
                    seconds, topo.memory_link.transfer_seconds(float(shard), 1)
                )

        if self.has_near_memory_acceleration and ctx.config.ndp_device is not None:
            # The replacement node's NDP device re-ingests the shard into
            # its banks: internal traffic, off the network metric.
            recovery.record("recovery-ndp-ingest", LinkClass.NDP_INTERNAL, shard)
            seconds += ctx.config.ndp_device.memory_seconds(float(shard))
        return seconds

    def _shard_wire_bytes(self, ctx: RunContext) -> np.ndarray:
        """``int64[k]`` wire size of each part's shard: edges + properties."""
        eb = edge_record_bytes(ctx.kernel)
        return (
            eb * ctx.assignment.edge_sizes(ctx.graph)
            + ctx.kernel.prop_push_bytes * ctx.assignment.sizes()
        )

    def _crash_extra_state_bytes(self, event: FaultEvent, ctx: RunContext) -> int:
        """Extra state restored with a crashed node's shard (default none)."""
        return 0

    def num_partitions(self) -> int:
        """Partition count for this architecture (= pool/cluster nodes)."""
        return self.config.num_memory_nodes

    def num_compute_nodes(self) -> int:
        """Nodes that run the apply phase and synchronize."""
        return self.config.num_compute_nodes

    # ------------------------------------------------------------------ #
    # Shared accounting helpers
    # ------------------------------------------------------------------ #

    def _iteration_stats(
        self,
        profile: IterationProfile,
        ctx: RunContext,
        charges: Charges,
        **timing: Any,
    ) -> IterationStats:
        """One iteration's stats: the profile's counts, the recorded
        transfers' totals, and the architecture's timing fields."""
        return IterationStats(
            iteration=profile.iteration,
            frontier_size=profile.frontier_size,
            edges_traversed=profile.edges_traversed,
            distinct_destinations=profile.distinct_destinations,
            partial_update_pairs=profile.partial_update_pairs,
            cross_update_pairs=profile.cross_update_pairs(ctx.assignment.parts),
            changed_vertices=int(profile.changed.size),
            host_link_bytes=charges.host_link_bytes,
            network_bytes=charges.network_bytes,
            bytes_by_phase=charges.bytes_by_phase,
            recovery_bytes=charges.recovery_bytes,
            sync_participants=self.num_compute_nodes(),
            **timing,
        )

    @staticmethod
    def _slowest_node_seconds(
        device, units_per_part: np.ndarray, ops_of, bytes_per_unit: int
    ) -> float:
        """Slowest node's time: compute + internal memory streaming.

        A node's ops (``ops_of(units)``) and bytes both grow with its unit
        count (edges or updates), so the node with the most units is the
        slowest; its time is the per-node maximum, bit for bit.
        """
        units = int(np.max(units_per_part, initial=0))
        return device.compute_seconds(ops_of(units)) + device.memory_seconds(
            float(bytes_per_unit * units)
        )

    def _host_shared_seconds(self, ops: float, nbytes: float) -> float:
        """Time for work split evenly across the compute pool."""
        hosts = self.num_compute_nodes()
        device = self.config.host_device
        return device.compute_seconds(ops / hosts) + device.memory_seconds(
            nbytes / hosts
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.num_partitions()})"
