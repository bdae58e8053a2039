"""Where ``run_sweep`` places a sweep: the caller's ``RemoteScheduler``
first, then ``jobs > 1`` forked workers, then in-process — and nowhere at
all when a resume leaves nothing to run."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.experiments.remote import RemoteScheduler
from repro.experiments.sweep import SweepTask, run_sweep

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]


def _idle_scheduler() -> RemoteScheduler:
    """A coordinator no worker ever joins: it fails if it starts."""
    return RemoteScheduler(token="idle", min_workers=1, worker_wait_s=0.3)


class TestSchedulerSeam:
    def test_explicit_scheduler_wins_over_jobs(self):
        with pytest.raises(SchedulerError, match="0 of 1 required workers"):
            run_sweep(TASKS, jobs=2, scheduler=_idle_scheduler())

    def test_scheduler_not_invoked_for_empty_todo(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        first = run_sweep(TASKS, journal_path=str(journal))
        idle = _idle_scheduler()
        resumed = run_sweep(
            TASKS, scheduler=idle, journal_path=str(journal), resume=True
        )
        # Everything came from the journal: the coordinator never bound.
        assert idle.bound is None
        assert resumed == first
