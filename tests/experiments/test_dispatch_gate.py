"""The coordinator's dispatch gate: no task leaves the coordinator before
``min_workers`` workers have connected."""

from __future__ import annotations

import sys

import pytest

from repro.errors import SchedulerError
from repro.experiments.journal import SweepJournal
from repro.experiments.remote import RemoteScheduler
from repro.experiments.sweep import SweepTask, run_sweep
from repro.experiments.worker import ForkedFleet

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="forks its worker"
)

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]


def test_one_worker_never_opens_a_two_worker_gate(tmp_path):
    # One forked worker connects at once; a second never comes.  Without
    # the gate it would drain the sweep on its own.
    fleet = ForkedFleet(1)
    sched = RemoteScheduler(
        token="gate-token", min_workers=2, worker_wait_s=1.0, fleet=fleet
    )
    journal = tmp_path / "sweep.journal"
    with pytest.raises(SchedulerError, match="only 1 of 2 required workers"):
        run_sweep(TASKS, scheduler=sched, journal_path=str(journal))
    assert SweepJournal.recover(journal).started == {}
    assert fleet.pids == set()
