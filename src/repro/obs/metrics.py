"""Declared metric names and the counters that use them.

Every counter the simulators, engine, fault model, and artifact cache
emit is a constant on :class:`M`.  A :class:`CounterSet` rejects any other
name at the ``add`` site — a typo'd counter raises
:class:`repro.errors.MetricError` (with a closest-match suggestion)
instead of silently creating a new series that no report ever reads.

Each count lives in the object that reports it: a run's in
``RunResult.counters``, the artifact cache's in ``ArtifactCache.counters``.
"""

from __future__ import annotations

import difflib
from typing import Dict, Iterator, Mapping, Optional

from repro.errors import MetricError


class M:
    """The declared metric names — use these instead of raw strings.

    Each attribute is a plain ``str``, so writes read
    ``counters.add(M.FAULT_EVENTS)`` and lookups ``run.counters["fault-events"]``.
    Declaring a metric is adding a constant here.
    """

    # Engine (blocked edge streaming under a memory budget).
    #: peak per-iteration edge-transient footprint (bytes)
    ENGINE_PEAK_TRACKED_BYTES = "engine-peak-tracked-bytes"
    #: CSR-ordered edge blocks streamed by budgeted iterations
    ENGINE_EDGE_BLOCKS = "engine-edge-blocks"
    #: iterations that engaged blocked edge streaming
    ENGINE_STREAMED_ITERATIONS = "engine-streamed-iterations"

    # Fault injection.
    #: fault events injected into the run
    FAULT_EVENTS = "fault-events"
    #: NDP-unit failures injected
    FAULT_NDP_FAILURES = "fault-ndp-failures"
    #: link degradations injected
    FAULT_LINK_DEGRADATIONS = "fault-link-degradations"
    #: message-drop events injected
    FAULT_MESSAGE_DROPS = "fault-message-drops"
    #: memory-node crashes injected
    FAULT_MEMORY_CRASHES = "fault-memory-crashes"

    # Recovery accounting.
    #: bytes retransmitted after message drops
    RECOVERY_RETRANSMITTED_BYTES = "recovery-retransmitted-bytes"
    #: bytes re-replicated from surviving shard replicas
    RECOVERY_REREPLICATED_BYTES = "recovery-rereplicated-bytes"
    #: bytes rebuilt from source after unreplicated crashes
    RECOVERY_REBUILT_BYTES = "recovery-rebuilt-bytes"
    #: checkpoints taken
    CHECKPOINT_COUNT = "checkpoint-count"
    #: bytes charged to checkpointing
    CHECKPOINT_BYTES = "checkpoint-bytes"

    # Disaggregated-NDP offload decisions.
    #: iterations forced to fetch: kernel not NDP-capable
    OFFLOAD_DENIED_CAPABILITY = "offload-denied-capability"
    #: iterations forced to fetch: NDP units failed
    OFFLOAD_DENIED_FAULT = "offload-denied-fault"
    #: iterations executed in fetch mode
    ITERATIONS_FETCH = "iterations-fetch"
    #: iterations executed offloaded
    ITERATIONS_OFFLOAD = "iterations-offload"
    #: iterations with mixed offload
    ITERATIONS_MIXED = "iterations-mixed"
    #: byte-feedback belief updates applied by the offload policy
    POLICY_CALIBRATION_UPDATES = "policy-calibration-updates"
    #: consecutive iterations whose placement mode changed
    POLICY_DECISION_FLIPS = "policy-decision-flips"
    #: updates combined by in-network aggregation
    INC_MERGED_UPDATES = "inc-merged-updates"
    #: updates the switch passed through unmerged
    INC_PASSTHROUGH_UPDATES = "inc-passthrough-updates"

    # Artifact cache (kinds × outcomes).
    CACHE_DATASET_HITS = "cache.dataset.hits"
    CACHE_DATASET_MISSES = "cache.dataset.misses"
    CACHE_DATASET_CORRUPT = "cache.dataset.corrupt"
    CACHE_DATASET_WRITES = "cache.dataset.writes"
    CACHE_DATASET_WRITE_ERRORS = "cache.dataset.write_errors"
    CACHE_PARTITION_HITS = "cache.partition.hits"
    CACHE_PARTITION_MISSES = "cache.partition.misses"
    CACHE_PARTITION_CORRUPT = "cache.partition.corrupt"
    CACHE_PARTITION_WRITES = "cache.partition.writes"
    CACHE_PARTITION_WRITE_ERRORS = "cache.partition.write_errors"
    CACHE_SYMMETRIZED_HITS = "cache.symmetrized.hits"
    CACHE_SYMMETRIZED_MISSES = "cache.symmetrized.misses"
    CACHE_SYMMETRIZED_CORRUPT = "cache.symmetrized.corrupt"
    CACHE_SYMMETRIZED_WRITES = "cache.symmetrized.writes"
    CACHE_SYMMETRIZED_WRITE_ERRORS = "cache.symmetrized.write_errors"
    #: entries evicted by the size cap
    CACHE_EVICTIONS = "cache.evictions"
    #: estimated regeneration time avoided by cache hits (seconds)
    CACHE_SECONDS_SAVED = "cache.seconds_saved"

    # Serving result artifacts (the "result" cache kind used by repro.serve).
    CACHE_RESULT_HITS = "cache.result.hits"
    CACHE_RESULT_MISSES = "cache.result.misses"
    CACHE_RESULT_CORRUPT = "cache.result.corrupt"
    CACHE_RESULT_WRITES = "cache.result.writes"
    CACHE_RESULT_WRITE_ERRORS = "cache.result.write_errors"


#: Every declared metric name: the values of :class:`M`.
METRICS = frozenset(
    value for key, value in vars(M).items() if not key.startswith("_")
)


def _undeclared(name: str) -> MetricError:
    hint = ""
    close = difflib.get_close_matches(name, METRICS, n=1)
    if close:
        hint = f" — did you mean {close[0]!r}?"
    return MetricError(
        f"undeclared metric {name!r}{hint} (declare it in "
        f"repro.obs.metrics before use)"
    )


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
        if name not in METRICS:
            raise _undeclared(name)
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
