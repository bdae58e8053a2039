"""Write-ahead journal: record encoding, recovery scans, and resume
semantics (a resumed sweep reuses journaled outcomes verbatim)."""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosPlan
from repro.errors import ExperimentError, JournalError
from repro.experiments.journal import (
    JOURNAL_VERSION,
    SweepJournal,
    decode_record,
    encode_record,
    outcome_from_json,
    outcome_to_json,
    sweep_digest,
    task_digest,
    task_from_json,
    task_to_json,
)
from repro.experiments.sweep import SweepTask, run_sweep
from repro.faults import FaultSpec
from support.file_faults import tear_tail

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
]


class TestRecordEncoding:
    def test_roundtrip(self):
        record = {"type": "start", "idx": 3, "attempt": 1}
        line = encode_record(record)
        assert line.endswith(b"\n")
        assert decode_record(line.rstrip(b"\n")) == record

    def test_crc_rejects_corruption(self):
        line = encode_record({"type": "start", "idx": 3}).rstrip(b"\n")
        # Flip a payload byte: still valid JSON, but the crc must catch it.
        tampered = line.replace(b'"idx":3', b'"idx":4')
        assert json.loads(tampered)  # sanity: the tamper parses
        assert decode_record(tampered) is None

    def test_non_json_rejected(self):
        assert decode_record(b"not json at all") is None
        assert decode_record(b"[1, 2, 3]") is None

    def test_crc_field_reserved(self):
        with pytest.raises(JournalError, match="reserved"):
            encode_record({"type": "start", "crc": "beef"})


class TestTaskSerialization:
    def test_roundtrip_plain(self):
        assert task_from_json(task_to_json(TASKS[0])) == TASKS[0]

    def test_roundtrip_with_fault_spec(self):
        task = SweepTask(
            "wikitalk-sim",
            "pagerank",
            4,
            "tiny",
            7,
            fault_spec=FaultSpec.standard(seed=3, num_parts=4),
        )
        assert task_from_json(task_to_json(task)) == task

    def test_roundtrip_with_policy(self):
        from repro.api import PolicySpec

        plain = SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7)
        task = SweepTask(
            "wikitalk-sim",
            "pagerank",
            4,
            "tiny",
            7,
            policy=PolicySpec("threshold", {"min_avg_degree": 2.0}),
        )
        rebuilt = task_from_json(task_to_json(task))
        assert rebuilt == task
        assert isinstance(rebuilt.policy, PolicySpec)
        # Policy participates in the task digest; its absence is the
        # pre-policy encoding, so old journals keep their digests.
        assert task_digest(task) != task_digest(plain)
        assert "policy" not in task_to_json(plain)

    def test_digests_are_content_addressed(self):
        assert task_digest(TASKS[0]) == task_digest(TASKS[0])
        assert task_digest(TASKS[0]) != task_digest(TASKS[1])
        assert sweep_digest(TASKS) != sweep_digest(list(reversed(TASKS)))


class TestJournalLifecycle:
    def test_create_writes_header(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS):
            pass
        recovery = SweepJournal.recover(path)
        assert recovery.header["v"] == JOURNAL_VERSION
        assert recovery.sweep_key == sweep_digest(TASKS)
        assert [t for t in recovery.tasks()] == TASKS
        assert recovery.torn_records == 0

    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS):
            pass
        with pytest.raises(JournalError, match="already exists"):
            SweepJournal.create(path, TASKS)

    def test_recover_missing_and_empty(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            SweepJournal.recover(tmp_path / "nope.journal")
        empty = tmp_path / "empty.journal"
        empty.touch()
        with pytest.raises(JournalError, match="empty"):
            SweepJournal.recover(empty)

    def test_recover_rejects_non_journal(self, tmp_path):
        path = tmp_path / "bogus.journal"
        path.write_bytes(encode_record({"type": "start", "idx": 0}))
        with pytest.raises(JournalError, match="not a sweep journal"):
            SweepJournal.recover(path)

    def test_resume_rejects_different_tasks(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS):
            pass
        with pytest.raises(JournalError, match="different sweep"):
            SweepJournal.resume(path, list(reversed(TASKS)))

    def test_mismatch_message_names_both_digests(self, tmp_path):
        # Diffing the journal's task-list digest against the current one
        # (printed by `run sweep --dry-run`) is how a refused resume gets
        # debugged, so the error must carry both in full.
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS):
            pass
        other = list(reversed(TASKS))
        with pytest.raises(JournalError) as excinfo:
            SweepJournal.resume(path, other)
        message = str(excinfo.value)
        assert sweep_digest(TASKS) in message
        assert sweep_digest(other) in message

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = SweepJournal.create(tmp_path / "j", TASKS)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.start(0, task_digest(TASKS[0]), 1)


class TestRecoveryScan:
    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS) as journal:
            journal.start(0, task_digest(TASKS[0]), 1)
        intact = path.stat().st_size
        path.write_bytes(
            path.read_bytes() + b'{"type":"outcome","idx":0,"status'
        )
        recovery = SweepJournal.recover(path)
        assert recovery.torn_records == 1
        assert recovery.valid_bytes == intact
        assert recovery.started == {0: 1}
        assert recovery.in_flight() == (0,)

    def test_resume_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal.create(path, TASKS) as journal:
            journal.start(0, task_digest(TASKS[0]), 1)
        intact = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage tail")
        journal, recovery = SweepJournal.resume(path, TASKS)
        with journal:
            journal.start(1, task_digest(TASKS[1]), 1)
        assert path.stat().st_size > intact
        clean = SweepJournal.recover(path)
        assert clean.torn_records == 0
        assert clean.started == {0: 1, 1: 1}

    def test_sigkill_mid_record_recovers_longest_valid_prefix(self, tmp_path):
        # A real torn write: the writer is SIGKILL'd with half a record
        # flushed to disk.  Recovery keeps every whole record before the
        # tear and resume truncates the fragment away.
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        path = tmp_path / "sweep.journal"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.experiments.journal import (
                SweepJournal, task_digest, encode_record,
            )
            from repro.experiments.sweep import SweepTask

            TASKS = [
                SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7,
                          max_iterations=4),
                SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7,
                          max_iterations=6),
            ]
            journal = SweepJournal.create({str(path)!r}, TASKS)
            journal.start(0, task_digest(TASKS[0]), 1)
            record = encode_record(
                {{"type": "start", "idx": 1,
                  "digest": task_digest(TASKS[1]), "attempt": 1}}
            )
            journal._fh.write(record[: len(record) // 2])
            journal._fh.flush()
            os.fsync(journal._fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, timeout=60
        )
        assert proc.returncode == -signal.SIGKILL

        recovery = SweepJournal.recover(path)
        assert recovery.torn_records == 1
        assert recovery.started == {0: 1}
        assert recovery.in_flight() == (0,)

        journal, resumed = SweepJournal.resume(path, TASKS)
        with journal:
            journal.start(1, task_digest(TASKS[1]), 1)
        clean = SweepJournal.recover(path)
        assert clean.torn_records == 0
        assert clean.started == {0: 1, 1: 1}

    def test_failed_then_ok_counts_as_completed(self, tmp_path):
        path = tmp_path / "sweep.journal"
        outcomes = run_sweep(TASKS, jobs=1, journal_path=str(path))
        with SweepJournal.resume(path, TASKS)[0]:
            pass
        recovery = SweepJournal.recover(path)
        assert sorted(recovery.completed) == [0, 1]
        assert recovery.unfinished == {}
        assert recovery.ended
        rebuilt = outcome_from_json(recovery.completed[0]["outcome"], TASKS[0])
        assert rebuilt == outcomes[0]


class TestJournaledSweep:
    def test_serial_journal_records_everything(self, tmp_path):
        path = tmp_path / "sweep.journal"
        outcomes = run_sweep(TASKS, jobs=1, journal_path=str(path))
        recovery = SweepJournal.recover(path)
        assert recovery.ended
        for idx, out in enumerate(outcomes):
            record = recovery.completed[idx]
            assert record["ledger_sha256"] == out.ledger_sha256
            assert outcome_from_json(record["outcome"], TASKS[idx]) == out

    def test_journal_off_results_identical(self, tmp_path):
        plain = run_sweep(TASKS, jobs=1)
        journaled = run_sweep(
            TASKS, jobs=1, journal_path=str(tmp_path / "sweep.journal")
        )
        assert plain == journaled

    def test_resume_skips_completed_tasks(self, tmp_path):
        path = tmp_path / "sweep.journal"
        first = run_sweep(TASKS, jobs=1, journal_path=str(path))
        # Every task would raise an injected crash if it actually ran:
        # a full resume must execute nothing and reuse the journal.
        resumed = run_sweep(
            TASKS,
            jobs=1,
            journal_path=str(path),
            resume=True,
            chaos_plan=ChaosPlan({t.label: ["crash"] * 99 for t in TASKS}),
        )
        assert resumed == first

    def test_resume_after_torn_tail(self, tmp_path):
        path = tmp_path / "sweep.journal"
        run_sweep(TASKS, jobs=1, journal_path=str(path))
        baseline = run_sweep(TASKS, jobs=1)
        tear_tail(path, seed=11)
        resumed = run_sweep(
            TASKS, jobs=1, journal_path=str(path), resume=True
        )
        assert resumed == baseline

    def test_resume_requires_journal_path(self):
        with pytest.raises(ExperimentError, match="resume requires"):
            run_sweep(TASKS, jobs=1, resume=True)

    def test_outcome_json_roundtrip_is_exact(self):
        out = run_sweep(TASKS[:1], jobs=1)[0]
        assert outcome_from_json(outcome_to_json(out), TASKS[0]) == out
