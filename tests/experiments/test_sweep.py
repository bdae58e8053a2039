"""Sweep runner: serial/parallel parity and the fault tolerance of the
runner itself (crashed workers, retries, keep-going, no leftover worker
processes)."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosPlan
from repro.errors import ConfigError, ExperimentError
from repro.experiments.runner import build_parser
from repro.experiments.sweep import SweepTask, fig7_sweep_tasks, run_sweep
from repro.faults import FaultSpec

TASKS = [
    SweepTask("livejournal-sim", "pagerank", 8, "tiny", 7, max_iterations=5),
    SweepTask("livejournal-sim", "bfs", 8, "tiny", 7, max_iterations=10),
    SweepTask("livejournal-sim", "cc", 8, "tiny", 7, max_iterations=10),
    SweepTask("wikitalk-sim", "sssp", 4, "tiny", 7, max_iterations=10),
]

SMALL_TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]


class TestRunSweep:
    def test_empty(self):
        assert run_sweep([]) == []

    def test_serial_outcomes(self):
        outcomes = run_sweep(TASKS, jobs=1)
        assert [o.task for o in outcomes] == TASKS
        for out in outcomes:
            assert out.num_iterations == len(out.fetch_bytes)
            assert out.num_iterations == len(out.offload_bytes)
            assert out.total_fetch_bytes > 0
            assert len(out.result_sha256) == 64

    def test_parallel_matches_serial_exactly(self):
        serial = run_sweep(TASKS, jobs=1)
        parallel = run_sweep(TASKS, jobs=4)
        assert serial == parallel

    def test_fig7_tasks_cover_panels(self):
        tasks = fig7_sweep_tasks(tier="tiny", seed=7)
        labels = {t.label for t in tasks}
        assert "cc/twitter7-sim/p32" in labels
        assert "sssp/livejournal-sim/p32" in labels
        assert "pagerank/uk2005-sim/p80" in labels
        assert len(tasks) >= 4

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(SMALL_TASKS, retries=-1)
        with pytest.raises(ConfigError):
            run_sweep(SMALL_TASKS, jobs=2, timeout=0)


class TestSweepFaultTolerance:
    """The hardened runner: crashes, retries, keep-going, shm hygiene."""

    def test_worker_crash_is_retried(self):
        crash_once = ChaosPlan({SMALL_TASKS[0].label: ["crash"]})
        outcomes = run_sweep(
            SMALL_TASKS, jobs=2, retries=2, backoff_s=0.01,
            chaos_plan=crash_once,
        )
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts >= 2
        # The retried outcome matches an undisturbed serial run bit-for-bit.
        serial = run_sweep(SMALL_TASKS, jobs=1)
        assert outcomes[0].result_sha256 == serial[0].result_sha256
        assert outcomes[0].ledger_sha256 == serial[0].ledger_sha256

    def test_exhausted_retries_fail_fast(self):
        always_crash = ChaosPlan({t.label: ["crash"] * 99 for t in SMALL_TASKS})
        with pytest.raises(ExperimentError, match="failed after"):
            run_sweep(
                SMALL_TASKS, jobs=2, retries=1, backoff_s=0.01,
                chaos_plan=always_crash,
            )

    def test_exhausted_retries_keep_going(self):
        crash_forever = ChaosPlan({SMALL_TASKS[0].label: ["crash"] * 99})
        outcomes = run_sweep(
            SMALL_TASKS, jobs=2, retries=1, backoff_s=0.01,
            keep_going=True, chaos_plan=crash_forever,
        )
        assert len(outcomes) == len(SMALL_TASKS)
        assert not outcomes[0].ok
        assert outcomes[0].error is not None
        assert outcomes[0].fetch_bytes == ()
        # Every other task still completed normally.
        assert all(o.ok for o in outcomes[1:])

    def test_serial_keep_going_records_failures(self):
        outcomes = run_sweep(
            SMALL_TASKS, jobs=1, keep_going=True,
            chaos_plan=ChaosPlan({SMALL_TASKS[1].label: ["crash"]}),
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "injected crash" in outcomes[1].error

    def test_serial_fail_fast_raises(self):
        with pytest.raises(ExperimentError, match="injected crash"):
            run_sweep(
                SMALL_TASKS, jobs=1,
                chaos_plan=ChaosPlan({SMALL_TASKS[0].label: ["crash"]}),
            )

    @pytest.mark.parametrize("case", ["clean", "hang-and-kill", "fail-fast"])
    def test_no_worker_outlives_the_sweep(self, case, live_children):
        """Every forked worker is killed and reaped before run_sweep
        returns or raises — a SIGSTOP'd one included."""
        before = live_children()
        if case == "clean":
            assert all(o.ok for o in run_sweep(SMALL_TASKS, jobs=2))
        elif case == "hang-and-kill":
            chaos = ChaosPlan(
                actions={
                    SMALL_TASKS[0].label: ["hang"],
                    SMALL_TASKS[1].label: ["kill"],
                }
            )
            outcomes = run_sweep(
                SMALL_TASKS, jobs=2, retries=2, backoff_s=0.01,
                heartbeat_timeout_s=1.0, chaos_plan=chaos,
            )
            assert all(o.ok and o.attempts == 2 for o in outcomes)
        else:
            with pytest.raises(ExperimentError, match="failed after"):
                run_sweep(
                    SMALL_TASKS, jobs=2, retries=0, backoff_s=0.01,
                    chaos_plan=ChaosPlan(
                        {t.label: ["crash"] * 99 for t in SMALL_TASKS}
                    ),
                )
        assert live_children() - before == set()


class TestSweepFaultInjection:
    """Fault specs ride inside tasks; ledgers stay deterministic."""

    FAULTY_TASKS = [
        SweepTask(
            "wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=6,
            fault_spec=FaultSpec(
                seed=21, horizon=6, num_parts=4, memory_crash_prob=0.3,
                message_drop_prob=0.3, replication_factor=2,
            ),
        ),
        SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
    ]

    def test_fault_spec_produces_recovery_bytes(self):
        outcomes = run_sweep(self.FAULTY_TASKS, jobs=1)
        assert outcomes[0].fetch_recovery_bytes > 0
        assert outcomes[0].offload_recovery_bytes > 0
        assert outcomes[1].fetch_recovery_bytes == 0

    def test_faulty_ledgers_identical_across_job_counts(self):
        """Same FaultSpec seed => bit-identical ledgers, serial or fanned out."""
        serial = run_sweep(self.FAULTY_TASKS, jobs=1)
        parallel = run_sweep(self.FAULTY_TASKS, jobs=2)
        assert serial == parallel
        again = run_sweep(self.FAULTY_TASKS, jobs=2)
        assert [o.ledger_sha256 for o in parallel] == [
            o.ledger_sha256 for o in again
        ]


class TestSweepCLI:
    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["run", "sweep", "--jobs", "4"])
        assert args.jobs == 4
        assert args.experiment == "sweep"

    def test_jobs_defaults_to_serial(self):
        args = build_parser().parse_args(["run", "fig7"])
        assert args.jobs == 1
