"""The sweep scheduler seam: LocalScheduler is the historical behavior,
and custom schedulers receive exactly the journal/chaos/options plumbing
the contract promises."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError, WorkerAuthError
from repro.experiments.scheduler import (
    LocalScheduler,
    SweepOptions,
    SweepScheduler,
)
from repro.experiments.sweep import SweepTask, run_sweep
from repro.utils.backoff import BackoffPolicy

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]


class TestLocalScheduler:
    def test_explicit_local_matches_default(self):
        default = run_sweep(TASKS)
        explicit = run_sweep(TASKS, scheduler=LocalScheduler())
        assert [o.ledger_sha256 for o in default] == [
            o.ledger_sha256 for o in explicit
        ]
        assert [o.result_sha256 for o in default] == [
            o.result_sha256 for o in explicit
        ]


class _RecordingScheduler(SweepScheduler):
    """Seam probe: records what run_sweep hands to a scheduler."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def execute(self, todo, results, session, chaos, opts):
        self.calls.append((list(todo), opts))
        # Resolve every task with a placeholder failure so run_sweep can
        # assemble results (keep_going mode).
        from repro.experiments.sweep import _failed_outcome

        for idx, task in todo:
            results[idx] = _failed_outcome(task, task.dataset, "stubbed", 1)


class TestSchedulerSeam:
    def test_custom_scheduler_receives_options(self):
        probe = _RecordingScheduler()
        outcomes = run_sweep(
            TASKS,
            scheduler=probe,
            jobs=3,
            timeout=12.5,
            retries=5,
            keep_going=True,
            poison_threshold=4,
            heartbeat_timeout_s=9.0,
        )
        assert len(probe.calls) == 1
        todo, opts = probe.calls[0]
        assert [idx for idx, _ in todo] == [0, 1]
        assert opts == SweepOptions(
            jobs=3,
            timeout=12.5,
            retries=5,
            backoff=BackoffPolicy(base_s=0.25, cap_s=8.0),
            keep_going=True,
            collect_spans=False,
            poison_threshold=4,
            heartbeat_timeout_s=9.0,
        )
        assert all(not o.ok for o in outcomes)

    def test_scheduler_not_invoked_for_empty_todo(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        run_sweep(TASKS, journal_path=str(journal))
        probe = _RecordingScheduler()
        resumed = run_sweep(
            TASKS, scheduler=probe, journal_path=str(journal), resume=True
        )
        # Everything came from the journal: the scheduler never ran.
        assert probe.calls == []
        assert all(o.ok for o in resumed)


class TestSchedulerErrors:
    def test_scheduler_error_is_experiment_error(self):
        from repro.errors import ExperimentError

        assert issubclass(SchedulerError, ExperimentError)
        assert issubclass(WorkerAuthError, SchedulerError)

    def test_remote_requires_token(self):
        from repro.experiments.remote import RemoteScheduler

        with pytest.raises(SchedulerError, match="token"):
            RemoteScheduler(token="")
