"""Execute once, account four ways: the engine loop and shared traces.

The paper's methodology (Section III) runs the real computation *once* and
separately accounts what each deployment strategy would have moved.  An
:class:`ExecutionTrace` is that idea made concrete: one pass through the
shared engine records every iteration's :class:`~repro.arch.engine.
IterationProfile` (plus the partition map and master/mirror structures the
accounting hooks need), and any number of architecture simulators then
*replay* the trace through their ``_account`` hooks —
:meth:`~repro.arch.base.ArchitectureSimulator.replay` — without ever
re-executing the kernel numerics.

:func:`engine_iterations` is the only engine loop.  :func:`record_trace`
keeps what it yields, and
:meth:`~repro.arch.base.ArchitectureSimulator.run` feeds it straight into
the same accounting loop that ``replay`` feeds from the recorded profiles,
so a replayed :class:`~repro.arch.results.RunResult` is bit-identical to
one produced by ``run`` on the same workload.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from repro.arch.engine import (
    EngineTelemetry,
    IterationProfile,
    StructuralProfileCache,
    execute_iteration,
    prepare_graph,
)
from repro.cache import get_cache
from repro.cache.artifacts import CachedPartitioner, symmetrized_cached
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.obs.span import (
    CATEGORY_ITERATION,
    CATEGORY_RUN,
    get_tracer,
)
from repro.kernels.base import KernelState, VertexProgram
from repro.partition.base import PartitionAssignment, Partitioner
from repro.partition.mirrors import MirrorTable, build_mirror_table
from repro.partition.random_hash import HashPartitioner
from repro.utils.rng import SeedLike


#: ``(profile, still-open iteration span)`` pairs, one per iteration
IterationStream = Generator[Tuple[IterationProfile, Any], None, None]


@dataclass
class ExecutionTrace:
    """One recorded kernel execution, replayable by any simulator.

    Holds everything a simulator's accounting pass reads: the prepared
    graph, the partition assignment, master/mirror structures, and the
    per-iteration structural profiles.  The engine loop advances
    ``final_state`` in place from the kernel's initial state, so once
    recorded it is the state after the last iteration — replayed runs
    share it (the numerics ran once, so there is only one to share).
    """

    graph: CSRGraph
    kernel: VertexProgram
    assignment: PartitionAssignment
    mirror_table: Optional[MirrorTable]
    mirrors_per_vertex: Optional[np.ndarray]
    final_state: KernelState
    converged: bool = False
    graph_name: str = "graph"
    profiles: List[IterationProfile] = field(default_factory=list)
    #: structural-profile cache statistics from the recording pass
    cache_hits: int = 0
    cache_misses: int = 0
    #: engine telemetry from the recording pass (see
    #: :class:`~repro.arch.engine.EngineTelemetry`)
    peak_tracked_bytes: int = 0
    edge_blocks: int = 0
    streamed_iterations: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.profiles)

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace({self.kernel.name!r} on {self.graph_name!r}, "
            f"{self.num_iterations} iterations, "
            f"parts={self.assignment.num_parts})"
        )


def record_trace(
    graph: CSRGraph,
    kernel: VertexProgram,
    *,
    num_parts: Optional[int] = None,
    partitioner: Optional[Partitioner] = None,
    assignment: Optional[PartitionAssignment] = None,
    source: Optional[int] = None,
    max_iterations: Optional[int] = None,
    graph_name: str = "graph",
    seed: SeedLike = 0,
    with_mirrors: bool = True,
    cache: Optional[StructuralProfileCache] = None,
    memory_budget_bytes: Optional[int] = None,
) -> ExecutionTrace:
    """Execute ``kernel`` on ``graph`` once and record every iteration.

    Parameters mirror :meth:`ArchitectureSimulator.run`; ``num_parts`` is
    required unless an explicit ``assignment`` is given.  ``with_mirrors``
    builds the master/mirror table so distributed simulators can replay
    the trace too (skip it to save the construction when only
    disaggregated accounting is needed).  ``cache`` overrides the
    structural-profile cache (pass ``None`` for the default fresh cache).
    ``memory_budget_bytes`` caps the engine's per-iteration edge
    transients; over budget, edges stream in blocks with bit-identical
    profiles and numerics (telemetry lands on the returned trace).
    """
    trace = prepare_trace(
        graph,
        kernel,
        num_parts=num_parts,
        partitioner=partitioner,
        assignment=assignment,
        source=source,
        graph_name=graph_name,
        seed=seed,
        with_mirrors=with_mirrors,
    )
    iterations = engine_iterations(
        trace,
        max_iterations=max_iterations,
        cache=cache,
        memory_budget_bytes=memory_budget_bytes,
    )
    with get_tracer().span(
        "run",
        category=CATEGORY_RUN,
        kernel=kernel.name,
        graph=graph_name,
        parts=trace.assignment.num_parts,
        mode="record",
    ) as run_span, closing(iterations):
        for profile, span in iterations:
            span.set_attrs(
                iteration=profile.iteration,
                frontier_size=profile.frontier_size,
                edges=profile.edges_traversed,
            )
            trace.profiles.append(profile)
        run_span.set_attrs(
            iterations=trace.num_iterations, converged=trace.converged
        )
    return trace


def prepare_trace(
    graph: CSRGraph,
    kernel: VertexProgram,
    *,
    num_parts: Optional[int] = None,
    partitioner: Optional[Partitioner] = None,
    assignment: Optional[PartitionAssignment] = None,
    source: Optional[int] = None,
    graph_name: str = "graph",
    seed: SeedLike = 0,
    with_mirrors: bool = True,
) -> ExecutionTrace:
    """The workload before its first iteration, as a trace with no
    profiles: the prepared graph, its partition (or the validated
    ``assignment``), the master/mirror table when ``with_mirrors``, and
    the kernel's initial state.

    Under a configured artifact cache (:func:`repro.cache.get_cache`) the
    kernel's symmetrized graph and a search partitioner's assignment are
    read from it, or built and stored on a miss.  A closed-form
    partitioner's assignment, the mirror table and the uniform-weights
    view are always recomputed: each costs less than the digest and read
    a hit needs."""
    cache = get_cache()
    if cache is not None and kernel.requires_symmetric:
        symmetrized_cached(graph, cache)  # seeds the memo read below
    prepared = prepare_graph(graph, kernel)
    if assignment is None:
        if num_parts is None:
            raise SimulationError(
                "record_trace needs num_parts or an explicit assignment"
            )
        chooser = partitioner or HashPartitioner()
        if cache is not None and not chooser.closed_form:
            chooser = CachedPartitioner(chooser, cache=cache)
        assignment = chooser.partition(prepared, num_parts, seed=seed)
    elif assignment.num_vertices != prepared.num_vertices:
        raise SimulationError(
            "assignment does not cover the prepared graph "
            f"({assignment.num_vertices} != {prepared.num_vertices})"
        )
    elif num_parts is not None and assignment.num_parts != num_parts:
        raise SimulationError(
            f"assignment has {assignment.num_parts} parts, the run needs "
            f"{num_parts}"
        )

    mirror_table = None
    mirrors_per_vertex = None
    if with_mirrors:
        mirror_table = build_mirror_table(prepared, assignment)
        mirrors_per_vertex = mirror_table.mirrors_per_vertex()
    return ExecutionTrace(
        graph=prepared,
        kernel=kernel,
        assignment=assignment,
        mirror_table=mirror_table,
        mirrors_per_vertex=mirrors_per_vertex,
        final_state=kernel.initial_state(prepared, source=source),
        graph_name=graph_name,
    )


def engine_iterations(
    trace: ExecutionTrace,
    *,
    max_iterations: Optional[int] = None,
    cache: Optional[StructuralProfileCache] = None,
    memory_budget_bytes: Optional[int] = None,
) -> IterationStream:
    """The engine loop: execute ``trace.kernel`` from the trace's state.

    Yields each iteration's profile with its still-open ``iteration``
    span, which holds the engine's phase spans; the consumer annotates it
    before asking for the next one.  The loop stops when the frontier
    empties or the kernel reports convergence, or at the iteration cap.
    Once exhausted it sets ``trace.converged`` and the engine telemetry.
    """
    kernel = trace.kernel
    state = trace.final_state
    cache = cache if cache is not None else StructuralProfileCache()
    telemetry = EngineTelemetry()
    tracer = get_tracer()
    cap = max_iterations if max_iterations is not None else kernel.max_iterations
    for _ in range(cap):
        if state.frontier.size == 0:
            trace.converged = True
            break
        with tracer.span("iteration", category=CATEGORY_ITERATION) as span:
            profile = execute_iteration(
                kernel,
                state,
                trace.assignment,
                mirrors_per_vertex=trace.mirrors_per_vertex,
                cache=cache,
                memory_budget_bytes=memory_budget_bytes,
                telemetry=telemetry,
                tracer=tracer,
            )
            yield profile, span
        if kernel.has_converged(state):
            trace.converged = True
            break

    state.converged = trace.converged
    trace.cache_hits = cache.hits
    trace.cache_misses = cache.misses
    trace.peak_tracked_bytes = telemetry.peak_tracked_bytes
    trace.edge_blocks = telemetry.edge_blocks
    trace.streamed_iterations = telemetry.streamed_iterations


def recorded_iterations(trace: ExecutionTrace) -> IterationStream:
    """Yield each recorded profile with a fresh, still-open ``iteration``
    span: the replay counterpart of :func:`engine_iterations`."""
    tracer = get_tracer()
    for profile in trace.profiles:
        with tracer.span("iteration", category=CATEGORY_ITERATION) as span:
            yield profile, span
