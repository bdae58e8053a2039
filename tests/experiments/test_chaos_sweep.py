"""Process-level chaos against the supervised sweep runner: real SIGKILLs,
real SIGSTOP hangs, graceful signal shutdown, and kill-resume equivalence
(the headline guarantee: a SIGKILL'd, resumed sweep merges to the same
ledgers as an uninterrupted run)."""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.chaos import ChaosPlan, ChaosSpec
from repro.errors import ConfigError, ExperimentError, SweepInterrupted
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import main
from repro.experiments.sweep import SweepTask, run_sweep

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP"), reason="needs POSIX signals"
)

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
    SweepTask("wikitalk-sim", "cc", 4, "tiny", 7, max_iterations=6),
]


def _kill_plan(label: str, times: int = 1) -> ChaosPlan:
    return ChaosPlan(actions={label: ["kill"] * times})


class TestChaosKill:
    def test_sigkilled_worker_is_retried(self):
        outcomes = run_sweep(
            TASKS,
            jobs=2,
            retries=2,
            backoff_s=0.01,
            chaos_plan=_kill_plan(TASKS[0].label),
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts >= 2
        serial = run_sweep(TASKS, jobs=1)
        assert [o.ledger_sha256 for o in outcomes] == [
            o.ledger_sha256 for o in serial
        ]

    def test_kill_then_resume_is_ledger_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL mid-sweep, resume, compare."""
        path = tmp_path / "sweep.journal"
        # retries=0 + fail-fast: the SIGKILL deterministically downs the
        # sweep, exactly like the process itself dying mid-run.
        with pytest.raises(ExperimentError):
            run_sweep(
                TASKS,
                jobs=2,
                retries=0,
                backoff_s=0.01,
                journal_path=str(path),
                chaos_plan=_kill_plan(TASKS[1].label),
            )
        resumed = run_sweep(
            TASKS,
            jobs=2,
            retries=2,
            backoff_s=0.01,
            journal_path=str(path),
            resume=True,
        )
        uninterrupted = run_sweep(TASKS, jobs=2)
        assert [o.ledger_sha256 for o in resumed] == [
            o.ledger_sha256 for o in uninterrupted
        ]
        assert [o.result_sha256 for o in resumed] == [
            o.result_sha256 for o in uninterrupted
        ]
        # The journal's completed records agree with the live outcomes.
        recovery = SweepJournal.recover(path)
        assert recovery.ended
        for idx, out in enumerate(resumed):
            assert recovery.completed[idx]["ledger_sha256"] == out.ledger_sha256

    def test_chaos_sweep_leaves_no_live_worker(self, tmp_path, live_children):
        """The forked fleet is killed and reaped when a SIGKILL downs it."""
        before = live_children()
        with pytest.raises(ExperimentError):
            run_sweep(
                TASKS,
                jobs=2,
                retries=0,
                backoff_s=0.01,
                journal_path=str(tmp_path / "j"),
                chaos_plan=_kill_plan(TASKS[0].label),
            )
        assert live_children() - before == set()


class TestChaosHang:
    def test_hung_worker_is_detected_and_retried(self):
        """SIGSTOP freezes a worker without killing it: only the heartbeat
        watchdog can notice.  The task must still complete on retry."""
        outcomes = run_sweep(
            TASKS,
            jobs=2,
            retries=2,
            backoff_s=0.01,
            heartbeat_timeout_s=1.0,
            chaos_plan=ChaosPlan(actions={TASKS[0].label: ["hang"]}),
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts >= 2
        serial = run_sweep(TASKS, jobs=1)
        assert [o.ledger_sha256 for o in outcomes] == [
            o.ledger_sha256 for o in serial
        ]

    def test_hang_exhausts_retries_with_hang_error(self):
        with pytest.raises(ExperimentError, match="hung|stale"):
            run_sweep(
                TASKS[:2],
                jobs=2,
                retries=0,
                backoff_s=0.01,
                heartbeat_timeout_s=1.0,
                chaos_plan=ChaosPlan(actions={TASKS[0].label: ["hang"]}),
            )

    def test_task_timeout_severs_a_hung_worker(self):
        # The keepalive bound is far off: only the per-task budget can
        # blame the frozen worker, so the charge must cite it.
        with pytest.raises(ExperimentError, match="timed out after 1s"):
            run_sweep(
                TASKS[:2],
                jobs=2,
                retries=0,
                backoff_s=0.01,
                timeout=1.0,
                heartbeat_timeout_s=60.0,
                chaos_plan=ChaosPlan(actions={TASKS[0].label: ["hang"]}),
            )


class TestQuarantine:
    def test_poison_task_is_quarantined(self):
        """A task that keeps killing the pool is set aside after K kills
        instead of burning the whole retry budget or downing the sweep."""
        outcomes = run_sweep(
            TASKS,
            jobs=2,
            retries=5,
            backoff_s=0.01,
            poison_threshold=2,
            chaos_plan=_kill_plan(TASKS[0].label, times=10),
        )
        assert outcomes[0].quarantined
        assert not outcomes[0].ok
        assert "quarantined" in outcomes[0].error
        # The rest of the sweep completed normally despite the poison task.
        assert all(o.ok for o in outcomes[1:])

    def test_quarantine_off_by_default(self):
        with pytest.raises(ExperimentError, match="failed after"):
            run_sweep(
                TASKS[:2],
                jobs=2,
                retries=1,
                backoff_s=0.01,
                chaos_plan=_kill_plan(TASKS[0].label, times=10),
            )

    def test_threshold_validation(self):
        with pytest.raises(ConfigError, match="poison_threshold"):
            run_sweep(TASKS[:1], jobs=2, poison_threshold=0)


class TestGracefulShutdown:
    def test_sigterm_flushes_journal_and_cleans_up(self, tmp_path, live_children):
        path = tmp_path / "sweep.journal"
        before = live_children()
        # Freeze one worker so the sweep is still in its poll loop when
        # the signal lands (nothing completes the frozen task).
        timer = threading.Timer(
            0.5, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            with pytest.raises(SweepInterrupted, match="SIGTERM"):
                run_sweep(
                    TASKS,
                    jobs=2,
                    retries=0,
                    backoff_s=0.01,
                    journal_path=str(path),
                    chaos_plan=ChaosPlan(actions={TASKS[0].label: ["hang"]}),
                )
        finally:
            timer.cancel()
        assert live_children() - before == set()
        recovery = SweepJournal.recover(path)
        assert recovery.interrupted
        assert not recovery.ended
        # And the journaled sweep still resumes to completion.
        resumed = run_sweep(
            TASKS, jobs=2, journal_path=str(path), resume=True
        )
        serial = run_sweep(TASKS, jobs=1)
        assert [o.ledger_sha256 for o in resumed] == [
            o.ledger_sha256 for o in serial
        ]

    def test_handlers_are_restored(self):
        old_int = signal.getsignal(signal.SIGINT)
        old_term = signal.getsignal(signal.SIGTERM)
        run_sweep(TASKS[:1], jobs=2)
        assert signal.getsignal(signal.SIGINT) is old_int
        assert signal.getsignal(signal.SIGTERM) is old_term


class TestChaosSpecPlumbing:
    def test_chaos_spec_drives_run_entry(self):
        from repro.experiments.sweep import run as sweep_run

        result = sweep_run(
            tier="tiny",
            seed=7,
            jobs=2,
            retries=2,
            tasks=TASKS,
            chaos_spec=ChaosSpec(seed=5, kill_tasks=1),
        )
        labels = {t.label for t in TASKS}
        assert set(result.data) == labels
        assert all("error" not in row for row in result.data.values())


class TestRunnerCLI:
    SWEEP = ["run", "sweep", "--tier", "tiny", "--seed", "7"]

    def test_killed_sweep_exits_2_and_resumes_to_the_clean_run(
        self, tmp_path, capsys
    ):
        """The runner CLI's chaos path: a SIGKILL under --retries 0 downs
        the sweep with exit 2 and leaves the journal behind; --resume then
        merges to the ledgers and results of an uninterrupted run."""
        journal = tmp_path / "sweep.journal"
        assert main(self.SWEEP + ["--json", str(tmp_path / "clean")]) == 0
        chaos = [
            "--jobs", "2", "--retries", "0", "--journal", str(journal),
            "--heartbeat-timeout", "5",
            "--chaos-seed", "7", "--chaos-kill", "1", "--chaos-hang", "1",
        ]
        assert main(self.SWEEP + chaos) == 2
        assert journal.stat().st_size > 0
        resume = [
            "--jobs", "2", "--journal", str(journal), "--resume",
            "--json", str(tmp_path / "resumed"),
        ]
        assert main(self.SWEEP + resume) == 0
        capsys.readouterr()
        clean = json.loads((tmp_path / "clean" / "sweep.json").read_text())
        resumed = json.loads((tmp_path / "resumed" / "sweep.json").read_text())
        assert clean and clean.keys() == resumed.keys()
        for label, row in clean.items():
            for field in ("ledger_sha256", "result_sha256"):
                assert resumed[label][field] == row[field], (label, field)
