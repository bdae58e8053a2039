"""Central metrics registry: declared names and the counters that use them.

Every counter the simulators, engine, fault model, and artifact cache
emit is *declared* here as a :class:`MetricSpec`.  A :class:`CounterSet`
rejects undeclared names at the ``add`` site — a typo'd counter raises
:class:`repro.errors.MetricError` (with a closest-match suggestion)
instead of silently creating a new series that no report ever reads.

Each count lives in the object that reports it: a run's in
``RunResult.counters``, the artifact cache's in ``ArtifactCache.counters``.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import MetricError


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric series."""

    name: str
    unit: str = ""
    description: str = ""


class MetricsRegistry:
    """Declared metric names."""

    def __init__(self) -> None:
        self._specs: Dict[str, MetricSpec] = {}

    def declare(self, name: str, *, unit: str = "", description: str = "") -> str:
        """Declare a metric; returns ``name`` so declarations read as
        constants (``FOO = REGISTRY.declare("foo", ...)``).

        Re-declaring an existing name is a no-op.
        """
        if name not in self._specs:
            self._specs[name] = MetricSpec(
                name=name, unit=unit, description=description
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
    CACHE_SYMMETRIZED_HITS = METRICS.declare("cache.symmetrized.hits")
    CACHE_SYMMETRIZED_MISSES = METRICS.declare("cache.symmetrized.misses")
    CACHE_SYMMETRIZED_CORRUPT = METRICS.declare("cache.symmetrized.corrupt")
    CACHE_SYMMETRIZED_WRITES = METRICS.declare("cache.symmetrized.writes")
    CACHE_SYMMETRIZED_WRITE_ERRORS = METRICS.declare(
        "cache.symmetrized.write_errors"
    )
    CACHE_EVICTIONS = METRICS.declare(
        "cache.evictions", description="entries evicted by the size cap"
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


class CounterSet:
    """Accumulate named numeric counters, checked against :data:`METRICS`.

    Every name written through :meth:`add` (and the ``initial`` mapping)
    must be declared — an undeclared name raises :class:`MetricError`.
    Reads (:meth:`get` / ``[]``) stay lenient and return 0 for unknown
    names, so report code can probe optional series.
    """

    __slots__ = ("_counts",)

    def __init__(self, initial: Optional[Mapping[str, float]] = None) -> None:
        self._counts: Dict[str, float] = {}
        if initial:
            for name, value in initial.items():
                self.add(name, value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment ``name`` by ``amount``."""
        METRICS.check(name)
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never touched)."""
        return self._counts.get(name, 0.0)

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
