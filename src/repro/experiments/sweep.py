"""Parallel multi-workload sweep runner.

Fig. 7-style sweeps run many (dataset, kernel, partition-count) workloads.
Each workload is independent, so the sweep fans out over worker processes.
A sweep's options are one :class:`repro.api.SweepSpec`, and
:func:`run_sweep` places the tasks left to run:

* an explicit :class:`repro.experiments.remote.RemoteScheduler` feeds
  ``repro-worker`` processes on any hosts;
* otherwise ``jobs > 1`` runs that same coordinator on loopback with
  ``jobs`` workers forked from this process
  (:class:`repro.experiments.worker.ForkedFleet`): they inherit the
  graphs the parent loaded, so no edge array is copied, pickled or sent,
  and local, remote and served sweeps share one supervision core;
* otherwise the tasks run in-process, one after another.

Each task itself follows the execute-once discipline: the kernel is
recorded into one :class:`~repro.arch.trace.ExecutionTrace` and replayed
through both disaggregated simulators (fetch vs NDP offload), so a sweep
over W workloads runs exactly W numeric executions regardless of how many
architectures are accounted.  Every placement executes the identical task
function, so their outcomes are bit-identical (the tests assert it).
"""

from __future__ import annotations

import hashlib
import json
import secrets
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover — annotation only, avoids an import cycle
    from repro.api import PolicySpec
    from repro.experiments.remote import RemoteScheduler

from repro.api import SweepSpec, _resolve_spec
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.results import result_sha256
from repro.arch.trace import record_trace
from repro.cache import load_dataset_cached
from repro.errors import ExperimentError
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.experiments.fig7 import PANELS
from repro.experiments.journal import (
    SweepJournal,
    outcome_from_json,
    sweep_digest,
    task_digest,
)
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.graph.csr import CSRGraph
from repro.chaos import ChaosPlan, ChaosSpec
from repro.kernels.registry import get_kernel
from repro.obs.span import (
    CATEGORY_RUN,
    CATEGORY_TASK,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.runtime.config import SystemConfig
from repro.utils.tables import TextTable


# --------------------------------------------------------------------------- #
# Sweep tasks
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepTask:
    """One workload in a sweep: a Fig. 7 panel generalized."""

    dataset: str
    kernel: str
    partitions: int
    tier: str = DEFAULT_TIER
    seed: int = DEFAULT_SEED
    max_iterations: int = 30
    #: optional deterministic fault schedule injected into both replays
    #: (accounting only — the recorded numerics are untouched)
    fault_spec: Optional[FaultSpec] = None
    #: optional engine memory budget; over it, edge transients stream in
    #: blocks (bit-identical profiles/numerics, see the engine docs)
    memory_budget_bytes: Optional[int] = None
    #: optional offload policy for the disaggregated-NDP replay
    #: (:class:`repro.api.PolicySpec`; default keeps AlwaysOffload)
    policy: Optional["PolicySpec"] = None

    @property
    def label(self) -> str:
        base = f"{self.kernel}/{self.dataset}/p{self.partitions}"
        if self.policy is not None:
            base += f"/{self.policy.spell()}"
        return base

    @property
    def graph_key(self) -> Tuple[str, str, int]:
        """Tasks sharing this key share one loaded graph."""
        return (self.dataset, self.tier, self.seed)


@dataclass(frozen=True)
class SweepOutcome:
    """Per-task results; fields are plain so outcomes pickle cheaply."""

    task: SweepTask
    graph_name: str
    num_iterations: int
    fetch_bytes: Tuple[int, ...]
    offload_bytes: Tuple[int, ...]
    frontier: Tuple[int, ...]
    result_sha256: str
    cache_hits: int
    cache_misses: int
    #: recovery + checkpoint movement per deployment (0 when fault-free)
    fetch_recovery_bytes: int = 0
    offload_recovery_bytes: int = 0
    #: digest of both deployments' full movement breakdowns — lets the
    #: determinism tests compare entire ledgers across processes cheaply
    ledger_sha256: str = ""
    #: how many attempts the task took (>1 after worker-crash retries)
    attempts: int = 1
    #: failure description when the task exhausted its retries under
    #: ``keep_going`` (every measurement field is then zero/empty)
    error: Optional[str] = None
    #: the task was quarantined as a poison task: it killed a worker
    #: ``poison_threshold`` times, so the sweep set it aside (with this
    #: diagnostic outcome) instead of burning retries on it
    quarantined: bool = False
    #: serialized span batch (``Tracer.to_batch()``) recorded inside the
    #: task when span collection is on — plain dicts, so it survives the
    #: process boundary and the parent can ``adopt_batch`` it
    spans: Tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_fetch_bytes(self) -> int:
        return int(sum(self.fetch_bytes))

    @property
    def total_offload_bytes(self) -> int:
        return int(sum(self.offload_bytes))


def _execute_task(
    task: SweepTask,
    graph: CSRGraph,
    graph_name: str,
    *,
    collect_spans: bool = False,
) -> SweepOutcome:
    """Run one workload: record the trace once, replay both deployments.

    This exact function serves both the serial path and the workers, so
    ``jobs=1`` and ``jobs=N`` outcomes can only differ if the inputs do.
    With ``collect_spans`` the task runs under its own local tracer and the
    outcome carries the serialized span batch — the driver adopts it into
    the parent timeline, so serial and parallel sweeps produce the same
    span *structure* (the tests assert exactly that).
    """
    if collect_spans:
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span(
                "task",
                category=CATEGORY_TASK,
                label=task.label,
                dataset=task.dataset,
                kernel=task.kernel,
                partitions=task.partitions,
            ):
                outcome = _task_body(task, graph, graph_name)
        return replace(outcome, spans=tracer.to_batch())
    return _task_body(task, graph, graph_name)


def _task_body(task: SweepTask, graph: CSRGraph, graph_name: str) -> SweepOutcome:
    kernel = get_kernel(task.kernel)
    source = int(graph.out_degrees.argmax()) if kernel.needs_source else None
    config = SystemConfig(
        num_memory_nodes=task.partitions,
        memory_budget_bytes=task.memory_budget_bytes,
    )
    trace = record_trace(
        graph,
        kernel,
        num_parts=task.partitions,
        source=source,
        max_iterations=task.max_iterations,
        graph_name=graph_name,
        seed=task.seed,
        with_mirrors=False,
        memory_budget_bytes=task.memory_budget_bytes,
    )
    # One schedule built up front serves both replays — identical events.
    faults = (
        FaultSchedule.from_spec(task.fault_spec)
        if task.fault_spec is not None
        else None
    )
    fetch = DisaggregatedSimulator(config).replay(trace, faults=faults)
    ndp_cfg = config if config.enable_inc else config.with_options(enable_inc=True)
    ndp_kwargs = (
        {} if task.policy is None else {"policy": task.policy.instantiate()}
    )
    offload = DisaggregatedNDPSimulator(ndp_cfg, **ndp_kwargs).replay(
        trace, faults=faults
    )
    digest = result_sha256(fetch.result_property())
    ledger_digest = hashlib.sha256(
        json.dumps(
            {"fetch": fetch.ledger.breakdown(), "offload": offload.ledger.breakdown()},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return SweepOutcome(
        task=task,
        graph_name=graph_name,
        num_iterations=trace.num_iterations,
        fetch_bytes=tuple(int(b) for b in fetch.per_iteration_bytes()),
        offload_bytes=tuple(int(b) for b in offload.per_iteration_bytes()),
        frontier=tuple(int(f) for f in fetch.per_iteration_frontier()),
        result_sha256=digest,
        cache_hits=trace.cache_hits,
        cache_misses=trace.cache_misses,
        fetch_recovery_bytes=fetch.total_recovery_bytes,
        offload_recovery_bytes=offload.total_recovery_bytes,
        ledger_sha256=ledger_digest,
    )


def _failed_outcome(
    task: SweepTask,
    graph_name: str,
    error: str,
    attempts: int,
    *,
    quarantined: bool = False,
) -> SweepOutcome:
    """Placeholder outcome for a task that exhausted its retries."""
    return SweepOutcome(
        task=task,
        graph_name=graph_name,
        num_iterations=0,
        fetch_bytes=(),
        offload_bytes=(),
        frontier=(),
        result_sha256="",
        cache_hits=0,
        cache_misses=0,
        attempts=attempts,
        error=error,
        quarantined=quarantined,
    )


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


def fig7_sweep_tasks(
    *, tier: str = DEFAULT_TIER, seed: int = DEFAULT_SEED
) -> List[SweepTask]:
    """The Fig. 7 panels, plus the remaining kernels on LiveJournal —
    enough workloads that the fan-out is worth its worker processes."""
    tasks = [
        SweepTask(p.dataset, p.kernel, p.partitions, tier, seed, p.max_iterations)
        for p in PANELS
    ]
    for kernel in ("pagerank", "bfs"):
        tasks.append(SweepTask("livejournal-sim", kernel, 32, tier, seed))
    return tasks


class _JournalSession:
    """Journal plumbing for one ``run_sweep`` call (no-op without a path).

    Owns open/resume/record/close so the runner body stays readable; every
    method is safe to call when journaling is off.
    """

    def __init__(self, spec: SweepSpec, tasks: Sequence[SweepTask]) -> None:
        self.journal: Optional[SweepJournal] = None
        self.resumed: Dict[int, SweepOutcome] = {}
        self.torn_records = 0
        journal_path = spec.journal_path
        if journal_path is None:
            self._digests: List[str] = []
            return
        self._digests = [task_digest(task) for task in tasks]
        if spec.resume:
            self.journal, recovery = SweepJournal.resume(journal_path, tasks)
            self.torn_records = recovery.torn_records
            for idx, record in recovery.completed.items():
                if 0 <= idx < len(tasks):
                    self.resumed[idx] = outcome_from_json(
                        record["outcome"], tasks[idx]
                    )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "journal-resume",
                    path=str(journal_path),
                    resumed=len(self.resumed),
                    in_flight=len(recovery.in_flight()),
                    torn_records=recovery.torn_records,
                )
        else:
            self.journal = SweepJournal.create(
                journal_path, tasks, meta={"jobs": spec.jobs}
            )

    def start(self, idx: int, attempt: int) -> None:
        if self.journal is not None:
            self.journal.start(idx, self._digests[idx], attempt)

    def outcome(self, idx: int, status: str, outcome: SweepOutcome) -> None:
        if self.journal is not None:
            self.journal.outcome(idx, status, outcome)

    def interrupt(self, reason: str) -> None:
        if self.journal is not None:
            self.journal.interrupt(reason)

    def end(self, results: Mapping[int, SweepOutcome]) -> None:
        if self.journal is not None:
            ok = sum(1 for out in results.values() if out.ok)
            self.journal.end(ok=ok, failed=len(results) - ok)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


def run_sweep(
    tasks: Sequence[SweepTask],
    spec: Optional[SweepSpec] = None,
    *,
    scheduler: Optional["RemoteScheduler"] = None,
    chaos_plan: Optional[ChaosPlan] = None,
    collect_spans: bool = False,
    backoff_s: float = 0.25,
    **overrides: Any,
) -> List[SweepOutcome]:
    """Run every task and return outcomes in task order.

    ``spec`` is a :class:`repro.api.SweepSpec`; keyword ``overrides``
    (``jobs=4``, ``keep_going=True``, ...) win over its fields.  The tasks
    left to run go to the caller's ``scheduler``; otherwise ``jobs > 1``
    runs the :class:`~repro.experiments.remote.RemoteScheduler` coordinator
    on loopback with ``jobs`` forked workers; otherwise they run
    in-process.  Every parallel sweep therefore has one set of semantics.

    A worker whose connection is lost (crash, kill), whose keepalive goes
    stale for ``heartbeat_timeout_s`` (frozen, not crashed) or whose task
    overruns ``timeout`` costs only the task it was running one attempt;
    that task is retried up to ``retries`` times with exponential backoff
    (``backoff_s * 2**attempt``, capped at 8 s).
    Deterministic in-task exceptions are not retried.  With
    ``keep_going`` a task that exhausts its retries becomes a placeholder
    outcome carrying ``error`` (the rest of the sweep completes); the
    default fail-fast mode raises ``ExperimentError``.  With
    ``poison_threshold=K`` a task that kills a worker K times is
    *quarantined* — recorded as a diagnostic outcome (``quarantined=True``)
    and set aside — instead of burning the whole retry budget or taking
    down the sweep.  SIGINT/SIGTERM flush the journal and raise
    ``SweepInterrupted``.  In-process there is no worker to supervise: a
    task runs once, and ``timeout``, ``retries``, ``poison_threshold`` and
    ``heartbeat_timeout_s`` do nothing.

    ``journal_path`` arms the write-ahead journal (see
    :mod:`repro.experiments.journal`); with ``resume=True`` tasks whose
    ``ok`` outcome is already journaled are skipped and their outcomes
    returned verbatim, so a killed sweep continues instead of restarting
    and the merged results are bit-identical to an uninterrupted run.

    ``chaos_plan`` (see :mod:`repro.chaos`) injects kill/hang/crash
    actions per task label; the sweep consumes a copy, so the caller's
    plan is left intact.  In-process any injected action raises instead,
    as there is no process to lose.

    With ``collect_spans`` each task records its own span batch (see
    :class:`SweepOutcome.spans`) regardless of the execution mode.
    """
    spec = _resolve_spec(SweepSpec, spec, overrides)
    if not tasks:
        return []
    # take() consumes the plan: copy it so the caller's stays intact.
    actions = chaos_plan.actions if chaos_plan is not None else {}
    chaos = ChaosPlan({label: list(kinds) for label, kinds in actions.items()})
    session = _JournalSession(spec, tasks)
    results: Dict[int, SweepOutcome] = dict(session.resumed)
    todo = [(idx, task) for idx, task in enumerate(tasks) if idx not in results]
    try:
        if todo and scheduler is None and spec.jobs == 1:
            _run_serial(todo, results, session, chaos, spec, collect_spans)
        elif todo:
            if scheduler is None:
                # Loaded for parallel sweeps only: asyncio, sockets, fork.
                from repro.experiments.remote import RemoteScheduler
                from repro.experiments.worker import ForkedFleet

                workers = min(spec.jobs, len(todo))
                scheduler = RemoteScheduler(
                    token=secrets.token_hex(16),
                    min_workers=workers,
                    fleet=ForkedFleet(workers),
                )
            scheduler.execute(
                todo, results, session, chaos, spec,
                backoff_s=backoff_s, collect_spans=collect_spans,
            )
        session.end(results)
    finally:
        session.close()
    return [results[idx] for idx in range(len(tasks))]


def _run_serial(
    todo: Sequence[Tuple[int, SweepTask]],
    results: Dict[int, SweepOutcome],
    session: _JournalSession,
    chaos: ChaosPlan,
    spec: SweepSpec,
    collect_spans: bool,
) -> None:
    """The in-process path; journal records bracket every task."""
    # Load each distinct graph exactly once, in task order — and only for
    # the tasks actually left to run on a resume.
    graphs: Dict[Tuple[str, str, int], Tuple[CSRGraph, str]] = {}
    for _idx, task in todo:
        if task.graph_key not in graphs:
            graph, ds = load_dataset_cached(
                task.dataset, tier=task.tier, seed=task.seed
            )
            graphs[task.graph_key] = (graph, ds.name)
    for idx, task in todo:
        graph, name = graphs[task.graph_key]
        session.start(idx, 1)
        try:
            action = chaos.take(task.label)
            if action is not None:
                raise ExperimentError(
                    f"injected {action} for {task.label} (serial mode)"
                )
            outcome = _execute_task(task, graph, name, collect_spans=collect_spans)
            results[idx] = outcome
            session.outcome(idx, "ok", outcome)
        except Exception as exc:
            failed = _failed_outcome(task, name, str(exc), 1)
            session.outcome(idx, "failed", failed)
            if not spec.keep_going:
                raise
            results[idx] = failed


def _dry_run_result(tasks: Sequence[SweepTask], spec: SweepSpec) -> ExperimentResult:
    """Resolved task list plus content digests; nothing executes.

    The per-task digests are exactly what journal ``start`` records pin
    and ``sweep_digest`` is what :meth:`SweepJournal.resume` validates, so
    two dry runs diff cleanly when a resume refuses a changed task list.
    """
    digest = sweep_digest(tasks)
    table = TextTable(
        ["#", "workload", "tier", "seed", "task digest"],
        title=f"Sweep dry run — {len(tasks)} workloads, jobs={spec.jobs}",
    )
    tasks_data: Dict[str, object] = {}
    for idx, task in enumerate(tasks):
        tdig = task_digest(task)
        table.add_row(idx, task.label, task.tier, task.seed, tdig[:12])
        tasks_data[task.label] = {
            "index": idx,
            "dataset": task.dataset,
            "kernel": task.kernel,
            "partitions": task.partitions,
            "tier": task.tier,
            "seed": task.seed,
            "task_digest": tdig,
        }
    result = ExperimentResult(
        experiment_id="sweep",
        title="Sweep dry run (no tasks executed)",
        tables=[table],
        data={"dry_run": True, "sweep_digest": digest, "tasks": tasks_data},
    )
    result.notes.append(
        f"sweep_digest {digest} — the content-addressed identity a "
        "--journal pins and a --resume validates.  No task was executed."
    )
    return result


def run(
    *,
    spec: Optional[SweepSpec] = None,
    tasks: Optional[Sequence[SweepTask]] = None,
    chaos_spec: Optional[ChaosSpec] = None,
    scheduler: Optional["RemoteScheduler"] = None,
    dry_run: bool = False,
    policy: Optional["PolicySpec"] = None,
    **overrides: Any,
) -> ExperimentResult:
    """Sweep experiment entry point (``repro-experiments sweep``).

    ``spec`` is a :class:`repro.api.SweepSpec`, keyword ``overrides``
    winning.  Without ``tasks`` the sweep runs the Fig. 7 panels at the
    spec's ``tier`` and ``seed``; its ``memory_budget_bytes`` and
    ``fault_seed`` (the standard mixed-fault schedule, see
    :meth:`FaultSpec.standard`) apply to every workload, and ``policy``
    overrides each one's disaggregated-NDP offload policy.  When a
    tracer is active (``repro-experiments --trace-out``), each task
    records its own span batch — in-process or on a worker — and the
    batches are adopted into one parent ``sweep`` span, so the timeline
    is coherent across process boundaries.

    ``chaos_spec`` arms the process-level fault harness (``--chaos-seed``
    et al.; see :mod:`repro.chaos`) — chaos victims are chosen over the
    final task labels, after every per-task override is applied.

    ``scheduler`` (``--scheduler remote``) runs the sweep on a
    :class:`~repro.experiments.remote.RemoteScheduler`.  ``dry_run``
    prints the resolved task list plus the content-addressed
    ``sweep_digest`` and executes nothing — the digest is what a journal
    pins and what a resume validates, so diffing two dry runs explains
    any "different sweep" refusal.
    """
    spec = _resolve_spec(SweepSpec, spec, overrides)
    if tasks is None:
        tasks = fig7_sweep_tasks(tier=spec.tier, seed=spec.seed)
    chosen = list(tasks)
    # --policy overrides the disaggregated-NDP offload policy per task.
    if policy is not None:
        chosen = [replace(task, policy=policy) for task in chosen]
    if spec.memory_budget_bytes is not None:
        budget = spec.memory_budget_bytes
        chosen = [replace(task, memory_budget_bytes=budget) for task in chosen]
    if spec.fault_seed is not None:
        chosen = [
            replace(
                task,
                fault_spec=FaultSpec.standard(
                    seed=spec.fault_seed, num_parts=task.partitions
                ),
            )
            for task in chosen
        ]
    if dry_run:
        return _dry_run_result(chosen, spec)
    chaos_plan = (
        chaos_spec.plan([task.label for task in chosen])
        if chaos_spec is not None and chaos_spec.total_victims
        else None
    )
    tracer = get_tracer()
    with tracer.span(
        "sweep",
        category=CATEGORY_RUN,
        workloads=len(chosen),
        jobs=spec.jobs,
        mode="sweep",
        journaled=spec.journal_path is not None,
        resumed=spec.resume,
    ):
        outcomes = run_sweep(
            chosen, spec, scheduler=scheduler, chaos_plan=chaos_plan,
            collect_spans=tracer.enabled,
        )
        for out in outcomes:
            if out.spans:
                tracer.adopt_batch(out.spans)
    table = TextTable(
        [
            "workload",
            "iterations",
            "no NDP (KB)",
            "NDP (KB)",
            "cache hits",
            "result sha256",
        ],
        title=f"Fig. 7 sweep — {len(outcomes)} workloads, jobs={spec.jobs}",
    )
    data: Dict[str, Dict[str, object]] = {}
    for out in outcomes:
        if not out.ok:
            status = "QUARANTINED" if out.quarantined else "FAILED"
            table.add_row(out.task.label, status, "-", "-", "-", out.error)
            data[out.task.label] = {
                "dataset": out.graph_name,
                "kernel": out.task.kernel,
                "partitions": out.task.partitions,
                "error": out.error,
                "attempts": out.attempts,
                "quarantined": out.quarantined,
            }
            continue
        table.add_row(
            out.task.label,
            out.num_iterations,
            out.total_fetch_bytes / 1e3,
            out.total_offload_bytes / 1e3,
            f"{out.cache_hits}/{out.cache_hits + out.cache_misses}",
            out.result_sha256[:12],
        )
        data[out.task.label] = {
            "dataset": out.graph_name,
            "kernel": out.task.kernel,
            "partitions": out.task.partitions,
            "fetch_bytes": list(out.fetch_bytes),
            "offload_bytes": list(out.offload_bytes),
            "frontier": list(out.frontier),
            "result_sha256": out.result_sha256,
            "ledger_sha256": out.ledger_sha256,
        }
        if out.fetch_recovery_bytes or out.offload_recovery_bytes:
            data[out.task.label]["fetch_recovery_bytes"] = out.fetch_recovery_bytes
            data[out.task.label]["offload_recovery_bytes"] = out.offload_recovery_bytes
    result = ExperimentResult(
        experiment_id="sweep",
        title="Parallel Fig. 7-style sweep",
        tables=[table],
        data=data,
    )
    result.notes.append(
        "Each workload executes its kernel numerics once and replays the "
        "trace through both disaggregated deployments; with --jobs N the "
        "workloads fan out over N forked workers fed by the sweep "
        "coordinator over loopback."
    )
    if spec.journal_path is not None:
        result.notes.append(
            f"Write-ahead journal: {spec.journal_path}"
            + (" (resumed)" if spec.resume else "")
            + " — a killed sweep continues with --resume instead of "
            "restarting."
        )
    quarantined = [out.task.label for out in outcomes if out.quarantined]
    if quarantined:
        result.notes.append(
            "Quarantined poison tasks: " + ", ".join(quarantined)
        )
    return result
