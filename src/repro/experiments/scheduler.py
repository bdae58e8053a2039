"""Sweep scheduler seam: one supervision core, any number of hosts.

:func:`repro.experiments.sweep.run_sweep` owns *what* a sweep is — task
order, journaling, resume, result assembly.  A :class:`SweepScheduler`
owns *where* the remaining tasks execute:

* :class:`LocalScheduler` — the default; runs ``jobs <= 1`` in-process,
  and for ``jobs > 1`` runs the remote coordinator on loopback with
  ``jobs`` workers forked from this process;
* :class:`~repro.experiments.remote.RemoteScheduler` — an asyncio TCP
  coordinator feeding ``repro-worker`` processes on any number of hosts,
  with the content-addressed artifact cache as the data plane.

Every parallel sweep therefore runs through one coordinator: per-task
retries with capped exponential backoff
(:class:`repro.utils.backoff.BackoffPolicy`), per-task timeouts,
keepalive supervision with blame attribution, poison-task quarantine, and
fail-fast vs ``keep_going`` semantics are written once.  The journal
records outcomes identically under either scheduler, so a sweep killed
under one can resume under the other.
"""

from __future__ import annotations

import secrets
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.utils.backoff import BackoffPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.chaos import ChaosPlan
    from repro.experiments.sweep import SweepOutcome, SweepTask, _JournalSession


@dataclass(frozen=True)
class SweepOptions:
    """Execution knobs shared by every scheduler implementation.

    ``jobs`` is the local worker-process count (the remote scheduler's
    parallelism is its connected worker count instead).  ``backoff``
    paces retries; ``heartbeat_timeout_s`` is the staleness bound for
    worker keepalives, forked or remote.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    keep_going: bool = False
    collect_spans: bool = False
    poison_threshold: Optional[int] = None
    heartbeat_timeout_s: float = 30.0


class SweepScheduler(ABC):
    """Strategy for executing a sweep's remaining tasks.

    ``execute`` mutates ``results`` in place (``idx -> SweepOutcome``)
    and writes journal records through ``session`` exactly like the
    historical in-process driver: ``start`` at dispatch, ``outcome`` on
    completion/failure/quarantine.  It raises ``ExperimentError`` on
    fail-fast task failure and ``SweepInterrupted`` on signal shutdown.
    """

    #: short name used by ``--scheduler`` and error messages
    name: str = "?"

    @abstractmethod
    def execute(
        self,
        todo: Sequence[Tuple[int, "SweepTask"]],
        results: Dict[int, "SweepOutcome"],
        session: "_JournalSession",
        chaos: "ChaosPlan",
        opts: SweepOptions,
    ) -> None:
        """Run every ``(idx, task)`` in ``todo``, recording into ``results``."""


class LocalScheduler(SweepScheduler):
    """Single-host execution: in-process, or ``jobs`` forked workers.

    ``jobs > 1`` runs :class:`~repro.experiments.remote.RemoteScheduler`
    bound to ``127.0.0.1:0`` with a fresh random token, fed by a
    :class:`~repro.experiments.worker.ForkedFleet`: the workers run the
    ``repro-worker`` serve loop and inherit the graphs the coordinator
    loaded, so nothing is shared, copied or cached on their behalf.
    """

    name = "local"

    def __init__(self, *, jobs: Optional[int] = None) -> None:
        #: overrides ``opts.jobs`` when given (run_sweep passes via opts)
        self.jobs = jobs

    def execute(
        self,
        todo: Sequence[Tuple[int, "SweepTask"]],
        results: Dict[int, "SweepOutcome"],
        session: "_JournalSession",
        chaos: "ChaosPlan",
        opts: SweepOptions,
    ) -> None:
        jobs = self.jobs if self.jobs is not None else opts.jobs
        # Imported here: these modules import this one for the seam types.
        if jobs <= 1:
            from repro.experiments.sweep import _run_serial

            _run_serial(
                todo,
                results,
                session,
                chaos,
                keep_going=opts.keep_going,
                collect_spans=opts.collect_spans,
            )
            return
        from repro.experiments.remote import RemoteScheduler
        from repro.experiments.worker import ForkedFleet

        workers = min(jobs, len(todo))
        RemoteScheduler(
            token=secrets.token_hex(16),
            min_workers=workers,
            fleet=ForkedFleet(workers),
        ).execute(todo, results, session, chaos, opts)
