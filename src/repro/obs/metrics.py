"""Central metrics registry: declared names, typed handles, counters.

Every counter the simulators, engine, fault model, and artifact cache
emit is *declared* here as a :class:`MetricSpec`.  A :class:`CounterSet`
constructed with ``registry=METRICS`` rejects undeclared names at the
``add`` site — a typo'd counter raises :class:`repro.errors.MetricError`
(with a closest-match suggestion) instead of silently creating a new
series that no report ever reads.

The registry also hands out process-wide typed instruments —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` — keyed by declared
name, for code that wants a handle instead of a string.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import MetricError

_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric series."""

    name: str
    kind: str = "counter"
    unit: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MetricError(
                f"metric {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )


class Counter:
    """Monotonically increasing process-wide counter handle."""

    __slots__ = ("spec", "_value")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.spec.name!r}: negative increment {amount!r}"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Gauge:
    """Last-value-wins process-wide gauge handle."""

    __slots__ = ("spec", "_value")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Streaming summary (count/total/min/max) of observed values."""

    __slots__ = ("spec", "count", "total", "min", "max")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.reset()

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.count == 1 else min(self.min, value)
        self.max = value if self.count == 1 else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.nan
        self.max = math.nan

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


_INSTRUMENT_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Declared metric names plus their process-wide typed instruments."""

    def __init__(self) -> None:
        self._specs: Dict[str, MetricSpec] = {}
        self._instruments: Dict[str, Any] = {}

    def declare(
        self,
        name: str,
        kind: str = "counter",
        *,
        unit: str = "",
        description: str = "",
    ) -> str:
        """Declare a metric; returns ``name`` so declarations read as
        constants (``FOO = REGISTRY.declare("foo", ...)``).

        Re-declaring an existing name with the same kind is a no-op;
        with a different kind it raises.
        """
        existing = self._specs.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricError(
                    f"metric {name!r} already declared as {existing.kind!r}, "
                    f"cannot re-declare as {kind!r}"
                )
            return name
        self._specs[name] = MetricSpec(
            name=name, kind=kind, unit=unit, description=description
        )
        return name

    def check(self, name: str) -> None:
        """Raise :class:`MetricError` if ``name`` was never declared."""
        if name in self._specs:
            return
        hint = ""
        close = difflib.get_close_matches(name, self._specs, n=1)
        if close:
            hint = f" — did you mean {close[0]!r}?"
        raise MetricError(
            f"undeclared metric {name!r}{hint} (declare it in "
            f"repro.obs.metrics before use)"
        )

    def spec(self, name: str) -> MetricSpec:
        self.check(name)
        return self._specs[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def _instrument(self, name: str, kind: str):
        spec = self.spec(name)
        if spec.kind != kind:
            raise MetricError(
                f"metric {name!r} is a {spec.kind}, not a {kind}"
            )
        handle = self._instruments.get(name)
        if handle is None:
            handle = _INSTRUMENT_TYPES[kind](spec)
            self._instruments[name] = handle
        return handle

    def counter(self, name: str) -> Counter:
        """Process-wide :class:`Counter` handle for a declared counter."""
        return self._instrument(name, "counter")

    def gauge(self, name: str) -> Gauge:
        """Process-wide :class:`Gauge` handle for a declared gauge."""
        return self._instrument(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        """Process-wide :class:`Histogram` handle for a declared histogram."""
        return self._instrument(name, "histogram")

    def snapshot(self) -> Dict[str, Any]:
        """Current values of every instantiated instrument."""
        out: Dict[str, Any] = {}
        for name, handle in sorted(self._instruments.items()):
            if isinstance(handle, Histogram):
                out[name] = handle.as_dict()
            else:
                out[name] = handle.value
        return out

    def reset_instruments(self) -> None:
        """Zero every instrument (tests); declarations are kept."""
        for handle in self._instruments.values():
            handle.reset()


#: The process-wide registry every built-in counter is declared against.
METRICS = MetricsRegistry()


class M:
    """Declared metric-name constants — use these instead of raw strings.

    Each attribute is the declared name (a plain ``str``), so existing
    call sites like ``counters.add(M.FAULT_EVENTS)`` and lookups like
    ``run.counters["fault-events"]`` keep working unchanged.
    """

    # Engine (blocked edge streaming under a memory budget).
    ENGINE_PEAK_TRACKED_BYTES = METRICS.declare(
        "engine-peak-tracked-bytes", unit="bytes",
        description="peak per-iteration edge-transient footprint",
    )
    ENGINE_EDGE_BLOCKS = METRICS.declare(
        "engine-edge-blocks",
        description="CSR-ordered edge blocks streamed by budgeted iterations",
    )
    ENGINE_STREAMED_ITERATIONS = METRICS.declare(
        "engine-streamed-iterations",
        description="iterations that engaged blocked edge streaming",
    )

    # Fault injection.
    FAULT_EVENTS = METRICS.declare(
        "fault-events", description="fault events injected into the run"
    )
    FAULT_NDP_FAILURES = METRICS.declare(
        "fault-ndp-failures", description="NDP-unit failures injected"
    )
    FAULT_LINK_DEGRADATIONS = METRICS.declare(
        "fault-link-degradations", description="link degradations injected"
    )
    FAULT_MESSAGE_DROPS = METRICS.declare(
        "fault-message-drops", description="message-drop events injected"
    )
    FAULT_MEMORY_CRASHES = METRICS.declare(
        "fault-memory-crashes", description="memory-node crashes injected"
    )

    # Recovery accounting.
    RECOVERY_RETRANSMITTED_BYTES = METRICS.declare(
        "recovery-retransmitted-bytes", unit="bytes",
        description="bytes retransmitted after message drops",
    )
    RECOVERY_REREPLICATED_BYTES = METRICS.declare(
        "recovery-rereplicated-bytes", unit="bytes",
        description="bytes re-replicated from surviving shard replicas",
    )
    RECOVERY_REBUILT_BYTES = METRICS.declare(
        "recovery-rebuilt-bytes", unit="bytes",
        description="bytes rebuilt from source after unreplicated crashes",
    )
    CHECKPOINT_COUNT = METRICS.declare(
        "checkpoint-count", description="checkpoints taken"
    )
    CHECKPOINT_BYTES = METRICS.declare(
        "checkpoint-bytes", unit="bytes",
        description="bytes charged to checkpointing",
    )

    # Disaggregated-NDP offload decisions.
    OFFLOAD_DENIED_CAPABILITY = METRICS.declare(
        "offload-denied-capability",
        description="iterations forced to fetch: kernel not NDP-capable",
    )
    OFFLOAD_DENIED_FAULT = METRICS.declare(
        "offload-denied-fault",
        description="iterations forced to fetch: NDP units failed",
    )
    ITERATIONS_FETCH = METRICS.declare(
        "iterations-fetch", description="iterations executed in fetch mode"
    )
    ITERATIONS_OFFLOAD = METRICS.declare(
        "iterations-offload", description="iterations executed offloaded"
    )
    ITERATIONS_MIXED = METRICS.declare(
        "iterations-mixed", description="iterations with mixed offload"
    )
    POLICY_CALIBRATION_UPDATES = METRICS.declare(
        "policy-calibration-updates",
        description="byte-feedback belief updates applied by the offload policy",
    )
    POLICY_DECISION_FLIPS = METRICS.declare(
        "policy-decision-flips",
        description="consecutive iterations whose placement mode changed",
    )
    INC_MERGED_UPDATES = METRICS.declare(
        "inc-merged-updates",
        description="updates combined by in-network aggregation",
    )
    INC_PASSTHROUGH_UPDATES = METRICS.declare(
        "inc-passthrough-updates",
        description="updates the switch passed through unmerged",
    )

    # Artifact cache (kinds × outcomes).
    CACHE_DATASET_HITS = METRICS.declare("cache.dataset.hits")
    CACHE_DATASET_MISSES = METRICS.declare("cache.dataset.misses")
    CACHE_DATASET_CORRUPT = METRICS.declare("cache.dataset.corrupt")
    CACHE_DATASET_WRITES = METRICS.declare("cache.dataset.writes")
    CACHE_DATASET_WRITE_ERRORS = METRICS.declare("cache.dataset.write_errors")
    CACHE_PARTITION_HITS = METRICS.declare("cache.partition.hits")
    CACHE_PARTITION_MISSES = METRICS.declare("cache.partition.misses")
    CACHE_PARTITION_CORRUPT = METRICS.declare("cache.partition.corrupt")
    CACHE_PARTITION_WRITES = METRICS.declare("cache.partition.writes")
    CACHE_PARTITION_WRITE_ERRORS = METRICS.declare(
        "cache.partition.write_errors"
    )
    CACHE_MIRRORS_HITS = METRICS.declare("cache.mirrors.hits")
    CACHE_MIRRORS_MISSES = METRICS.declare("cache.mirrors.misses")
    CACHE_MIRRORS_CORRUPT = METRICS.declare("cache.mirrors.corrupt")
    CACHE_MIRRORS_WRITES = METRICS.declare("cache.mirrors.writes")
    CACHE_MIRRORS_WRITE_ERRORS = METRICS.declare("cache.mirrors.write_errors")
    CACHE_EVICTIONS = METRICS.declare(
        "cache.evictions", description="entries evicted by the size cap"
    )
    CACHE_VERIFY_SCANNED = METRICS.declare(
        "cache.verify.scanned",
        description="artifact entries scanned by repro-cache verify",
    )
    CACHE_VERIFY_CORRUPT = METRICS.declare(
        "cache.verify.corrupt",
        description="corrupt/truncated entries found by repro-cache verify",
    )
    CACHE_VERIFY_EVICTED = METRICS.declare(
        "cache.verify.evicted",
        description="corrupt entries evicted by repro-cache verify --evict",
    )
    CACHE_SECONDS_SAVED = METRICS.declare(
        "cache.seconds_saved", unit="seconds",
        description="estimated regeneration time avoided by cache hits",
    )

    # Serving result artifacts (the "result" cache kind used by repro.serve).
    CACHE_RESULT_HITS = METRICS.declare("cache.result.hits")
    CACHE_RESULT_MISSES = METRICS.declare("cache.result.misses")
    CACHE_RESULT_CORRUPT = METRICS.declare("cache.result.corrupt")
    CACHE_RESULT_WRITES = METRICS.declare("cache.result.writes")
    CACHE_RESULT_WRITE_ERRORS = METRICS.declare("cache.result.write_errors")

    # Analytics-as-a-service daemon (repro.serve).
    SERVE_REQUESTS = METRICS.declare(
        "serve.requests",
        description="analytics requests received by the serving daemon",
    )
    SERVE_EXECUTIONS = METRICS.declare(
        "serve.executions",
        description="requests that actually executed a workload (the rest "
        "were coalesced onto one or served from the result cache)",
    )
    SERVE_COALESCED = METRICS.declare(
        "serve.coalesced-hits",
        description="requests attached to an identical in-flight execution",
    )
    SERVE_RESULT_HITS = METRICS.declare(
        "serve.result-hits",
        description="requests answered from the content-addressed result "
        "cache without executing",
    )
    SERVE_SHED = METRICS.declare(
        "serve.shed-requests",
        description="requests shed by admission control (queue full)",
    )
    SERVE_QUOTA_REJECTS = METRICS.declare(
        "serve.quota-rejects",
        description="requests rejected by per-tenant quotas or rate limits",
    )
    SERVE_ERRORS = METRICS.declare(
        "serve.errors",
        description="requests that failed during parsing or execution",
    )
    SERVE_POOL_HITS = METRICS.declare(
        "serve.pool.hits",
        description="graph-pool acquisitions served by a warm pinned graph",
    )
    SERVE_POOL_MISSES = METRICS.declare(
        "serve.pool.misses",
        description="graph-pool acquisitions that had to load the graph",
    )
    SERVE_POOL_EVICTIONS = METRICS.declare(
        "serve.pool.evictions",
        description="unpinned graphs evicted from the pool byte budget",
    )
    SERVE_QUEUE_DEPTH = METRICS.declare(
        "serve.queue-depth", "gauge",
        description="admitted requests waiting for a worker",
    )
    SERVE_INFLIGHT = METRICS.declare(
        "serve.inflight", "gauge",
        description="requests currently executing on the worker pool",
    )
    SERVE_POOL_BYTES = METRICS.declare(
        "serve.pool-bytes", "gauge", unit="bytes",
        description="CSR bytes pinned or cached in the shared graph pool",
    )
    SERVE_POOL_PINNED = METRICS.declare(
        "serve.pool-pinned", "gauge",
        description="graphs in the pool currently leased by a request",
    )
    SERVE_REQUEST_SECONDS = METRICS.declare(
        "serve.request-seconds", "histogram", unit="seconds",
        description="end-to-end request latency observed by the daemon",
    )
    SERVE_QUEUE_SECONDS = METRICS.declare(
        "serve.queue-seconds", "histogram", unit="seconds",
        description="time admitted requests spent queued before execution",
    )

    # Sweep crash-safety layer (journal, supervision, quarantine).
    JOURNAL_RECORDS = METRICS.declare(
        "journal.records-written",
        description="records appended to sweep write-ahead journals",
    )
    JOURNAL_TORN_RECORDS = METRICS.declare(
        "journal.torn-records",
        description="torn/corrupt tail records discarded by journal recovery",
    )
    SWEEP_TASKS_RESUMED = METRICS.declare(
        "sweep.tasks-resumed",
        description="tasks skipped on resume (journaled outcome reused)",
    )
    SWEEP_HUNG_WORKERS = METRICS.declare(
        "sweep.hung-workers",
        description="workers severed for stale keepalives or task timeouts",
    )
    SWEEP_QUARANTINED = METRICS.declare(
        "sweep.quarantined-tasks",
        description="poison tasks quarantined after repeated worker kills",
    )

    # Distributed sweep (remote scheduler + workers).
    SWEEP_REMOTE_WORKERS = METRICS.declare(
        "sweep.remote-workers", "gauge",
        description="workers currently connected to the sweep coordinator",
    )
    SWEEP_REMOTE_TASKS = METRICS.declare(
        "sweep.remote-tasks-dispatched",
        description="tasks dispatched to remote sweep workers",
    )
    SWEEP_REMOTE_DISCONNECTS = METRICS.declare(
        "sweep.remote-disconnects",
        description="worker connections lost mid-task (task re-queued)",
    )
    SWEEP_ARTIFACTS_SHIPPED = METRICS.declare(
        "sweep.artifacts-shipped",
        description="cache artifacts served to workers over the wire",
    )
    SWEEP_ARTIFACT_BYTES = METRICS.declare(
        "sweep.artifact-bytes-shipped", unit="bytes",
        description="artifact payload bytes shipped to sweep workers",
    )

    # Typed-instrument series (gauges / histograms).
    CACHE_SIZE_BYTES = METRICS.declare(
        "cache.size-bytes", "gauge", unit="bytes",
        description="on-disk artifact-cache footprint after the last write",
    )
    ITERATION_SECONDS = METRICS.declare(
        "obs.iteration-seconds", "histogram", unit="seconds",
        description="modeled per-iteration seconds observed by traced runs",
    )


class CounterSet:
    """Accumulate named numeric counters (missing names read as 0).

    With ``registry=``, every name written through :meth:`add` (and thus
    :meth:`merge` and the ``initial`` mapping) must be declared in that
    registry — an undeclared name raises :class:`MetricError`.  Reads
    (:meth:`get` / ``[]``) stay lenient and return 0 for unknown names,
    so report code can probe optional series.
    """

    __slots__ = ("_counts", "_registry")

    def __init__(
        self,
        initial: Optional[Mapping[str, float]] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._registry = registry
        self._counts: Dict[str, float] = {}
        if initial:
            for name, value in initial.items():
                self.add(name, value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount``."""
        if self._registry is not None:
            self._registry.check(name)
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never touched)."""
        return self._counts.get(name, 0.0)

    def merge(self, other: "CounterSet") -> None:
        """Fold another counter set into this one."""
        for name, value in other._counts.items():
            self.add(name, value)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"CounterSet({inner})"


def strict_counters(initial: Optional[Mapping[str, float]] = None) -> CounterSet:
    """A :class:`CounterSet` validated against :data:`METRICS`."""
    return CounterSet(initial, registry=METRICS)
