"""Stable public API facade: specs, one-call entry points, and the DSL.

This module is the supported programmatic surface of the package.  Two
layers live here:

* **Facade functions** — :func:`run`, :func:`compare`, :func:`sweep`,
  :func:`load_dataset`, :func:`partition` — one keyword-only call each
  for the workflows the CLIs expose, all driven by names (dataset,
  kernel, architecture, partitioner) so callers never import simulator
  classes.  :class:`RunSpec` is the frozen value object describing one
  workload; every facade function accepts either a spec or the same
  fields as keywords.
* **Kernel DSL** — :func:`vertex_program` builds a fully-featured
  :class:`~repro.kernels.base.VertexProgram` from three plain functions.

Section IV.A: "simply providing a programming API to specify the different
types of operations (i.e., traverse vs. apply) is not sufficient" — but it
is *necessary*.  :func:`vertex_program` is that API: custom analytics run
through every architecture simulator, offload policy, and capability
check without subclassing.

Example — one call per workflow::

    import repro

    result = repro.run(dataset="livejournal-sim", kernel="pagerank",
                       architecture="disaggregated-ndp", tier="tiny")
    table = repro.compare(dataset="livejournal-sim", kernel="bfs",
                          tier="tiny")
    graph, spec = repro.load_dataset("twitter7-sim", tier="tiny")
    assignment = repro.partition(graph, num_parts=8, partitioner="ldg")

Example — out-neighbor weighted degree::

    import numpy as np
    from repro.api import vertex_program

    wdeg = vertex_program(
        name="weighted-degree",
        reduce="sum",
        value_bytes=8,
        uses_weights=True,
        init=lambda graph, source: {
            "props": {"wdeg": np.zeros(graph.num_vertices)},
            "frontier": np.arange(graph.num_vertices),
        },
        traverse=lambda state, src, dst, w: w,
        apply=lambda state, touched, reduced: (
            state.prop("wdeg").__setitem__(touched, reduced),
            touched,
        )[1],
        max_iterations=1,
        single_shot=True,
        result="wdeg",
    )

DSL programs plug into the execute-once machinery unchanged: record one
:class:`~repro.arch.trace.ExecutionTrace` of the program and replay it
through any number of architecture simulators without re-running the
numerics::

    from repro.api import record_trace

    trace = record_trace(graph, wdeg, num_parts=8)
    runs = [sim.replay(trace) for sim in simulators]
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arch.compare import compare_architectures
from repro.arch.registry import get_architecture
from repro.arch.trace import ExecutionTrace, record_trace
from repro.cache import load_dataset_cached
from repro.cache.keys import canonical_key
from repro.errors import ConfigError, KernelError
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset as load_uncached
from repro.kernels.base import (
    ComputeProfile,
    KernelState,
    MessageSpec,
    VertexProgram,
)
from repro.kernels.registry import get_kernel
from repro.partition.registry import get_partitioner
from repro.runtime.config import SystemConfig
from repro.runtime.offload import check_policy_name, get_policy

__all__ = [
    "PolicySpec",
    "RunSpec",
    "SweepSpec",
    "run",
    "compare",
    "sweep",
    "load_dataset",
    "partition",
    "vertex_program",
    "ExecutionTrace",
    "record_trace",
    "ComputeProfile",
    "KernelState",
    "MessageSpec",
    "VertexProgram",
]

# --------------------------------------------------------------------------- #
# Facade: PolicySpec + RunSpec + one-call workflows
# --------------------------------------------------------------------------- #


def _coerce_policy_param(text: str) -> Any:
    """CLI scalar coercion for ``key=value`` policy parameters."""
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


@dataclass(frozen=True)
class PolicySpec:
    """Typed, hashable offload-policy selection: a name plus parameters.

    Replaces the bare-string ``RunSpec.policy``: ``threshold(0.1)`` and
    ``threshold(0.3)`` are different workloads, so the policy must carry
    its parameters into :meth:`RunSpec.digest` for coalescing and caching
    to distinguish them.  ``params`` is normalized in construction to a
    key-sorted tuple of ``(key, value)`` pairs, so a spec built from a
    dict, a list of pairs (the JSON round-trip form), or keyword order
    variations hashes and digests identically::

        PolicySpec("threshold", {"min_avg_degree": 2.0})
        PolicySpec("adaptive")
        PolicySpec.parse("threshold:min_avg_degree=2")   # the CLI spelling

    Unknown policy names raise :class:`ConfigError` with a did-you-mean
    hint at construction time, not at run time.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                f"policy name must be a non-empty string, got {self.name!r}"
            )
        check_policy_name(self.name)
        raw = self.params
        if raw is None:
            items = []
        elif isinstance(raw, Mapping):
            items = list(raw.items())
        else:
            try:
                items = [(key, value) for key, value in raw]
            except (TypeError, ValueError):
                raise ConfigError(
                    f"policy {self.name!r}: params must be a mapping or an "
                    f"iterable of (key, value) pairs, got {raw!r}"
                ) from None
        seen = set()
        norm = []
        for key, value in items:
            if not isinstance(key, str) or not key:
                raise ConfigError(
                    f"policy {self.name!r}: parameter names must be "
                    f"non-empty strings, got {key!r}"
                )
            if key in seen:
                raise ConfigError(
                    f"policy {self.name!r}: duplicate parameter {key!r}"
                )
            seen.add(key)
            if value is not None and not isinstance(value, (bool, int, float, str)):
                raise ConfigError(
                    f"policy {self.name!r}: parameter {key!r} must be a "
                    f"scalar, got {type(value).__name__}"
                )
            norm.append((key, value))
        object.__setattr__(
            self, "params", tuple(sorted(norm, key=lambda kv: kv[0]))
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The parameters as constructor keyword arguments."""
        return dict(self.params)

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON form (used by digests and wire payloads)."""
        return {"name": self.name, "params": dict(self.params)}

    def instantiate(self):
        """Build the :class:`~repro.runtime.offload.OffloadPolicy`."""
        return get_policy(self.name, **self.kwargs)

    def spell(self) -> str:
        """The CLI spelling: ``name`` or ``name:key=val,key=val``."""
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{rendered}"

    @classmethod
    def parse(cls, value: Any) -> "PolicySpec":
        """Coerce a spec, mapping, or string (CLI syntax) to a PolicySpec.

        Strings use the shared CLI grammar ``name[:key=val,key=val]`` with
        int/float/bool coercion; mappings use the :meth:`to_json` shape.
        """
        if isinstance(value, PolicySpec):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "params"}
            if unknown:
                raise ConfigError(
                    f"unknown policy field(s) {sorted(unknown)}; "
                    "expected {'name', 'params'}"
                )
            if "name" not in value:
                raise ConfigError("policy mapping needs a 'name' field")
            return cls(name=value["name"], params=value.get("params") or ())
        if isinstance(value, str):
            name, _, rest = value.partition(":")
            params: Dict[str, Any] = {}
            for item in rest.split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, raw = item.partition("=")
                if not sep or not key.strip():
                    raise ConfigError(
                        f"malformed policy parameter {item!r} in {value!r} "
                        "(expected name:key=val,key=val)"
                    )
                params[key.strip()] = _coerce_policy_param(raw.strip())
            return cls(name=name.strip(), params=params)
        raise ConfigError(
            f"policy must be a PolicySpec, mapping, or string, "
            f"got {type(value).__name__}"
        )


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """Frozen description of one workload — the facade's value object.

    Every field is a plain name or number, so specs serialize trivially
    and two equal specs describe bit-identical runs.  ``replace(spec,
    kernel="bfs")`` derives variants the usual dataclass way.
    """

    dataset: str = "livejournal-sim"
    kernel: str = "pagerank"
    architecture: str = "disaggregated-ndp"
    tier: str = "small"
    seed: int = 7
    scale_shift: int = 0
    partitions: int = 8
    partitioner: Optional[str] = None
    #: offload-policy selection (NDP-capable architectures); build one from
    #: a string or mapping with :meth:`PolicySpec.parse`
    policy: Optional[PolicySpec] = None
    source: Optional[int] = None
    max_iterations: Optional[int] = None
    memory_budget_bytes: Optional[int] = None
    fault_seed: Optional[int] = None
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.policy is not None and not isinstance(self.policy, PolicySpec):
            raise ConfigError(
                f"policy must be a PolicySpec, got {type(self.policy).__name__} "
                f"{self.policy!r}; build one with PolicySpec.parse"
            )
        if self.partitions < 1:
            raise ConfigError(f"partitions must be >= 1, got {self.partitions}")
        if self.replication_factor < 1:
            raise ConfigError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )

    def digest(self) -> str:
        """Canonical content digest of this spec (sha256 hex).

        The digest is the sha256 of a sorted-key canonical-JSON rendering
        of *every* field — defaults included — so two specs describing the
        same workload hash identically no matter the keyword order or
        whether defaults were spelled out.  It is the coalescing and
        result-cache key of the serving daemon (:mod:`repro.serve`): equal
        digests mean bit-identical results, so requests sharing a digest
        can share one execution.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        # A fixed entry for the removed ``backend`` field keeps digests, and
        # the result-cache keys built on them, unchanged.
        payload["backend"] = "auto"
        if self.policy is not None:
            payload["policy"] = self.policy.to_json()
        return canonical_key("runspec", payload)


_SPEC_FIELDS = frozenset(f.name for f in fields(RunSpec))


def _resolve_spec(cls: type, spec: Any, overrides: Dict[str, Any]) -> Any:
    """``spec`` (default ``cls()``) with keyword ``overrides`` applied;
    unknown names raise :class:`ConfigError`."""
    valid = sorted(f.name for f in fields(cls))
    unknown = set(overrides) - set(valid)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
            f"valid fields: {valid}"
        )
    if spec is None:
        return cls(**overrides)
    if not isinstance(spec, cls):
        raise ConfigError(
            f"spec must be a {cls.__name__}, got {type(spec).__name__}"
        )
    return replace(spec, **overrides) if overrides else spec


def _spec_workload(
    spec: RunSpec,
    *,
    graph: Optional[CSRGraph] = None,
    graph_name: Optional[str] = None,
):
    """Load the graph and instantiate the named pieces a spec describes.

    ``graph``/``graph_name`` short-circuit the dataset load with an
    already-loaded graph — the serving daemon's warm pool
    (:mod:`repro.serve`) passes its pinned copy here so repeat tenants
    skip generation entirely.  The caller is responsible for the graph
    actually matching the spec's ``(dataset, tier, seed, scale_shift)``;
    datasets are generated deterministically, so an honest pool entry is
    bit-identical to a fresh load.
    """
    if graph is None:
        graph, ds = load_dataset(
            spec.dataset,
            tier=spec.tier,
            seed=spec.seed,
            scale_shift=spec.scale_shift,
        )
        graph_name = ds.name
    elif graph_name is None:
        graph_name = spec.dataset
    kernel = get_kernel(spec.kernel)
    chooser = (
        get_partitioner(spec.partitioner) if spec.partitioner is not None else None
    )
    source = spec.source
    if source is None and kernel.needs_source:
        source = int(graph.out_degrees.argmax())
    return graph, graph_name, kernel, chooser, source


def _spec_faults(spec: RunSpec):
    if spec.fault_seed is None:
        return None
    return FaultSchedule.from_spec(
        FaultSpec.standard(
            seed=spec.fault_seed,
            num_parts=spec.partitions,
            replication_factor=spec.replication_factor,
        )
    )


def run(spec: Optional[RunSpec] = None, **overrides: Any):
    """Run one workload on one architecture; returns a ``RunResult``.

    Accepts a :class:`RunSpec`, keyword overrides, or both (overrides win)::

        result = repro.run(dataset="twitter7-sim", kernel="bfs", tier="tiny")
        result = repro.run(spec, architecture="distributed-ndp")

    The active tracer (see :mod:`repro.obs`) instruments the run when one
    is installed; otherwise tracing costs nothing.
    """
    spec = _resolve_spec(RunSpec, spec, overrides)
    return _run_resolved(spec)


def _run_resolved(
    spec: RunSpec,
    *,
    graph: Optional[CSRGraph] = None,
    graph_name: Optional[str] = None,
):
    """Execute a resolved spec (optionally against a preloaded graph).

    This is the single execution path behind both :func:`run` and the
    serving daemon's warm-pool executor, so a served result can only
    differ from the CLI/facade path if the *inputs* differ.
    """
    graph, graph_name, kernel, chooser, source = _spec_workload(
        spec, graph=graph, graph_name=graph_name
    )
    config = SystemConfig(
        num_memory_nodes=spec.partitions,
        memory_budget_bytes=spec.memory_budget_bytes,
    )
    kwargs: Dict[str, Any] = {}
    if spec.policy is not None:
        if spec.architecture != "disaggregated-ndp":
            raise ConfigError(
                f"architecture {spec.architecture!r} has no offload choice "
                f"to apply policy {spec.policy.spell()!r} to; policies "
                "apply to 'disaggregated-ndp'"
            )
        kwargs["policy"] = spec.policy.instantiate()
    simulator = get_architecture(spec.architecture, config, **kwargs)
    return simulator.run(
        graph,
        kernel,
        partitioner=chooser,
        source=source,
        max_iterations=spec.max_iterations,
        graph_name=graph_name,
        seed=spec.seed,
        faults=_spec_faults(spec),
    )


def compare(spec: Optional[RunSpec] = None, **overrides: Any):
    """Run all four architectures on one workload (Table II / Fig. 7 rows).

    Returns an ``ArchitectureComparison``; the workload executes once and
    is replayed through every simulator's accounting pass.  The spec's
    ``architecture`` field is ignored — a comparison always covers all
    four deployments.  ``policy`` applies to the one deployment with a
    per-iteration placement choice, disaggregated-NDP (the other three
    are fixed by definition: distributed architectures never offload
    remotely and the passive pool cannot), so the comparison shows the
    chosen policy against the static baselines.
    """
    spec = _resolve_spec(RunSpec, spec, overrides)
    return _compare_resolved(spec)


def _compare_resolved(
    spec: RunSpec,
    *,
    graph: Optional[CSRGraph] = None,
    graph_name: Optional[str] = None,
):
    """Execute a resolved comparison (optionally against a preloaded graph)."""
    graph, graph_name, kernel, chooser, source = _spec_workload(
        spec, graph=graph, graph_name=graph_name
    )
    config = SystemConfig(
        num_memory_nodes=spec.partitions,
        memory_budget_bytes=spec.memory_budget_bytes,
    )
    return compare_architectures(
        graph,
        kernel,
        config=config,
        partitioner=chooser,
        source=source,
        max_iterations=spec.max_iterations,
        graph_name=graph_name,
        seed=spec.seed,
        faults=_spec_faults(spec),
        policy=spec.policy.instantiate() if spec.policy is not None else None,
    )


@dataclass(frozen=True, kw_only=True)
class SweepSpec:
    """Frozen description of how a sweep *executes* — the one declaration
    of a sweep's options, read by ``repro-experiments run sweep``,
    :func:`sweep`, :func:`repro.experiments.sweep.run` and
    :func:`~repro.experiments.sweep.run_sweep` alike (the workloads
    themselves are :class:`~repro.experiments.sweep.SweepTask` objects).

    ``tier``, ``seed``, ``memory_budget_bytes`` and ``fault_seed`` shape
    the default Fig. 7 task list; ``run_sweep`` runs the tasks it is given
    and ignores them.  ``timeout``, ``retries``, ``poison_threshold`` and
    ``heartbeat_timeout_s`` supervise worker processes, so they do nothing
    in an in-process sweep (``jobs=1`` without a ``RemoteScheduler``, i.e.
    ``--jobs 1`` without ``--scheduler remote``): there a task runs once
    and its exception fails the sweep (a FAILED row under ``keep_going``).

    Serializes trivially, so a driver script can persist the spec next to
    the journal and re-create the exact resume call after a crash::

        spec = repro.SweepSpec(jobs=4, journal_path="sweep.journal")
        repro.sweep(spec=spec)                       # killed mid-run...
        repro.sweep(spec=replace(spec, resume=True)) # ...continues
    """

    tier: str = "small"
    seed: int = 7
    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    keep_going: bool = False
    memory_budget_bytes: Optional[int] = None
    fault_seed: Optional[int] = None
    #: write-ahead journal file; arms crash-safe resumability
    journal_path: Optional[str] = None
    #: resume a journaled sweep instead of starting fresh
    resume: bool = False
    #: quarantine a task after it kills a worker this many times
    poison_threshold: Optional[int] = None
    #: declare a worker hung after its keepalive is stale this long
    heartbeat_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.poison_threshold is not None and self.poison_threshold < 1:
            raise ConfigError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError(
                "heartbeat_timeout_s must be positive, got "
                f"{self.heartbeat_timeout_s}"
            )
        if self.resume and self.journal_path is None:
            raise ConfigError("resume requires journal_path")


def sweep(
    tasks: Optional[Sequence[Any]] = None,
    *,
    spec: Optional[SweepSpec] = None,
    **overrides: Any,
):
    """Run a multi-workload sweep; returns an ``ExperimentResult``.

    ``tasks`` is a sequence of :class:`~repro.experiments.sweep.SweepTask`
    (default: the Fig. 7 panel set); ``spec`` is a :class:`SweepSpec`
    describing the execution (jobs, retries, journal, ...), with keyword
    overrides winning as usual.  ``jobs > 1`` fans out over worker
    processes forked from this one and fed by the sweep coordinator over
    loopback; when a tracer is active the workers' span batches are
    stitched into the parent timeline.
    ``journal_path``/``resume`` make the sweep crash-safe: a killed run
    restarted with ``resume=True`` skips completed tasks and produces
    merged results bit-identical to an uninterrupted run.
    """
    from repro.experiments import sweep as sweep_mod

    spec = _resolve_spec(SweepSpec, spec, overrides)
    return sweep_mod.run(spec=spec, tasks=tasks)


def load_dataset(
    name: str,
    *,
    tier: str = "small",
    seed: Any = 7,
    scale_shift: int = 0,
    cache: bool = True,
):
    """Load a stand-in dataset; returns ``(graph, dataset_spec)``.

    Goes through the content-addressed artifact cache when one is active
    (``cache=False`` bypasses it for this call only).
    """
    if cache:
        return load_dataset_cached(
            name, tier=tier, seed=seed, scale_shift=scale_shift
        )
    return load_uncached(name, tier=tier, seed=seed, scale_shift=scale_shift)


def partition(
    graph: CSRGraph,
    *,
    num_parts: int,
    partitioner: str = "hash",
    seed: int = 0,
    **params: Any,
):
    """Partition a graph by partitioner name; returns a ``PartitionAssignment``.

    Extra keyword arguments are forwarded to the partitioner constructor
    (e.g. ``repro.partition(g, num_parts=8, partitioner="ldg", slack=0.1)``).
    """
    return get_partitioner(partitioner, **params).partition(
        graph, num_parts, seed=seed
    )


InitFn = Callable[[CSRGraph, Optional[int]], Dict]
TraverseFn = Callable[[KernelState, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
ApplyFn = Callable[[KernelState, np.ndarray, np.ndarray], np.ndarray]
FrontierFn = Callable[[KernelState, np.ndarray], np.ndarray]
ConvergedFn = Callable[[KernelState], bool]


class _DSLProgram(VertexProgram):
    """VertexProgram assembled from user callables (built by the factory)."""

    def __init__(
        self,
        *,
        name: str,
        message: MessageSpec,
        compute: ComputeProfile,
        prop_push_bytes: int,
        init: InitFn,
        traverse: TraverseFn,
        apply_fn: ApplyFn,
        frontier_fn: Optional[FrontierFn],
        converged_fn: Optional[ConvergedFn],
        result_prop: str,
        needs_source: bool,
        uses_weights: bool,
        requires_symmetric: bool,
        max_iterations: int,
        single_shot: bool,
    ) -> None:
        self.name = name
        self.message = message
        self.compute = compute
        self.prop_push_bytes = prop_push_bytes
        self.needs_source = needs_source
        self.uses_weights = uses_weights
        self.requires_symmetric = requires_symmetric
        self.max_iterations = max_iterations
        self._init = init
        self._traverse = traverse
        self._apply = apply_fn
        self._frontier = frontier_fn
        self._converged = converged_fn
        self._result_prop = result_prop
        self._single_shot = single_shot

    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        if self.needs_source:
            source = self.check_source(graph, source)
        spec = self._init(graph, source)
        if not isinstance(spec, dict) or "props" not in spec:
            raise KernelError(
                f"{self.name}: init must return a dict with a 'props' key"
            )
        state = KernelState(graph=graph)
        for prop_name, values in spec["props"].items():
            values = np.asarray(values)
            if values.shape != (graph.num_vertices,):
                raise KernelError(
                    f"{self.name}: property {prop_name!r} must have shape "
                    f"({graph.num_vertices},), got {values.shape}"
                )
            state.props[prop_name] = values.astype(np.float64, copy=True)
        frontier = spec.get(
            "frontier", np.arange(graph.num_vertices, dtype=np.int64)
        )
        state.frontier = self._vertex_ids(frontier, graph, "init")
        for key, value in spec.get("scalars", {}).items():
            state.scalars[key] = float(value)
        if self._result_prop not in state.props:
            raise KernelError(
                f"{self.name}: result property {self._result_prop!r} missing "
                f"from init's props ({sorted(state.props)})"
            )
        return state

    def edge_messages(self, state, src, dst, weights):
        values = np.asarray(self._traverse(state, src, dst, weights), dtype=np.float64)
        if values.shape != src.shape:
            raise KernelError(
                f"{self.name}: traverse returned shape {values.shape} for "
                f"{src.shape} edges"
            )
        return values

    def apply(self, state, touched, reduced):
        changed = self._apply(state, touched, reduced)
        return self._vertex_ids(changed, state.graph, "apply")

    def update_frontier(self, state, changed):
        if self._single_shot:
            return np.empty(0, dtype=np.int64)
        if self._frontier is not None:
            return self._vertex_ids(
                self._frontier(state, changed), state.graph, "frontier"
            )
        return changed

    def _vertex_ids(self, ids, graph: CSRGraph, source: str) -> np.ndarray:
        """``ids`` as int64; :class:`KernelError` naming ``source`` when one
        lies outside ``[0, n)`` or repeats (any order is fine)."""
        ids = np.asarray(ids, dtype=np.int64)
        n = graph.num_vertices
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise KernelError(
                f"{self.name}: {source} returned vertex ids outside [0, {n})"
            )
        if np.unique(ids).size != ids.size:
            raise KernelError(f"{self.name}: {source} returned repeated vertex ids")
        return ids

    def has_converged(self, state):
        if self._converged is not None:
            return bool(self._converged(state))
        return super().has_converged(state)

    def result(self, state):
        return state.prop(self._result_prop)


def vertex_program(
    *,
    name: str,
    init: InitFn,
    traverse: TraverseFn,
    apply: ApplyFn,
    result: str,
    reduce: str = "sum",
    value_bytes: int = 8,
    prop_push_bytes: int = 16,
    frontier: Optional[FrontierFn] = None,
    converged: Optional[ConvergedFn] = None,
    needs_source: bool = False,
    uses_weights: bool = False,
    requires_symmetric: bool = False,
    needs_fp: bool = True,
    needs_int_muldiv: bool = False,
    traverse_flops_per_edge: float = 1.0,
    traverse_intops_per_edge: float = 1.0,
    apply_flops_per_update: float = 1.0,
    apply_intops_per_update: float = 1.0,
    max_iterations: int = 100,
    single_shot: bool = False,
) -> VertexProgram:
    """Assemble a :class:`VertexProgram` from plain functions.

    Parameters
    ----------
    init:
        ``(graph, source) -> {"props": {name: array}, "frontier": ids,
        "scalars": {...}}``; ``frontier`` defaults to all vertices.
    traverse:
        ``(state, src, dst, weights) -> per-edge message values`` —
        the operation offloaded near-data.
    apply:
        ``(state, touched, reduced) -> changed vertex ids`` — the update
        operation run on the compute nodes.
    result:
        name of the property returned by ``kernel.result(state)``.
    reduce / value_bytes / prop_push_bytes:
        wire-format annotations driving the movement accounting.
    needs_fp / needs_int_muldiv:
        capability annotations driving offload legality (Table I).
    single_shot:
        run exactly one iteration (aggregation-style kernels).
    """
    if not name:
        raise KernelError("vertex_program needs a non-empty name")
    message = MessageSpec(value_bytes=value_bytes, reduce=reduce)
    compute = ComputeProfile(
        traverse_flops_per_edge=traverse_flops_per_edge,
        traverse_intops_per_edge=traverse_intops_per_edge,
        apply_flops_per_update=apply_flops_per_update,
        apply_intops_per_update=apply_intops_per_update,
        needs_fp=needs_fp,
        needs_int_muldiv=needs_int_muldiv,
    )
    return _DSLProgram(
        name=name,
        message=message,
        compute=compute,
        prop_push_bytes=prop_push_bytes,
        init=init,
        traverse=traverse,
        apply_fn=apply,
        frontier_fn=frontier,
        converged_fn=converged,
        result_prop=result,
        needs_source=needs_source,
        uses_weights=uses_weights,
        requires_symmetric=requires_symmetric,
        max_iterations=max_iterations,
        single_shot=single_shot,
    )
