"""Resilience-layer overhead benchmarks (BENCH_resilience.json).

The write-ahead journal's contract is that the fault-free path stays
cheap: only durable record types (header/outcome/interrupt/end) are
fsync'd, ``start`` records are merely flushed, and everything else is a
few hundred bytes of canonical JSON per task.  A journal-on against
journal-off A/B timing of a whole sweep cannot resolve a cost that small
(the two differ by a few milliseconds of a quarter-second sweep, within
its run-to-run noise), so the bench measures the journal directly: it
writes the records one journaled sweep wrote, through the same
``SweepJournal`` calls and fsyncs, into a fresh file (min-of-N), and
divides by the journal-off sweep (min-of-N).  The journaled sweep's
outcomes must be *equal* to the unjournaled ones (the bit-identity half
of the contract; anything else disqualifies the measurement).

A resume from a fully completed journal is also timed: it must return
the journaled outcomes without re-running any task, so it is expected to
be dramatically faster than re-executing.
"""

from __future__ import annotations

import time

from conftest import min_of, write_bench

from repro.experiments.journal import SweepJournal, decode_record
from repro.experiments.sweep import SweepTask, run_sweep

ROUNDS = 7

#: Heavy enough that each task runs for hundreds of milliseconds — the
#: regime the journal is designed for (a Fig. 7-scale task is seconds to
#: minutes).  The fixed fsync cost per outcome then amortizes to well
#: under the bar; journaling 10 ms tasks would not (and a sweep of 10 ms
#: tasks does not need crash safety).
TASKS = [
    SweepTask("livejournal-sim", "pagerank", 8, "medium", 7,
              max_iterations=100),
    SweepTask("livejournal-sim", "sssp", 8, "medium", 7,
              max_iterations=100),
]


def _write_journal(path, records):
    """Write a sweep's journal records the way the sweep writes them."""
    journal = SweepJournal.create(path, TASKS, meta=records[0]["meta"])
    for record in records[1:]:
        journal.append(record)
    journal.close()


def test_journal_overhead(tmp_path):
    """What one sweep's journal costs, against the journal-off sweep."""
    # Warm the artifact cache and the allocator first, and establish the
    # equality contract: journaling must not change a single outcome.
    baseline = run_sweep(TASKS)
    recorded = tmp_path / "recorded.journal"
    journaled = run_sweep(TASKS, journal_path=str(recorded))
    assert journaled == baseline, "journaling changed the sweep outcomes"
    records = [decode_record(line) for line in recorded.read_bytes().splitlines()]
    assert records[0]["type"] == "header" and records[-1]["type"] == "end"

    sweep_s, _ = min_of(lambda: run_sweep(TASKS), ROUNDS)
    # A journal refuses to overwrite an existing sweep's records, so
    # every timed round writes a fresh file.
    paths = iter(tmp_path / f"round-{n}.journal" for n in range(ROUNDS))
    journal_s, _ = min_of(lambda: _write_journal(next(paths), records), ROUNDS)
    write_bench(
        "BENCH_resilience.json",
        "journal_overhead",
        {
            "workloads": [task.label for task in TASKS],
            "tier": "medium",
            "rounds": ROUNDS,
            "records": len(records),
            "journal_seconds": journal_s,
            "sweep_seconds": sweep_s,
            "overhead_pct": 100.0 * journal_s / sweep_s,
        },
    )


def test_resume_skips_completed_work(tmp_path):
    """Resuming a finished journal replays outcomes without re-running."""
    path = str(tmp_path / "complete.journal")

    start = time.perf_counter()
    executed = run_sweep(TASKS, journal_path=path)
    executed_s = time.perf_counter() - start

    start = time.perf_counter()
    resumed = run_sweep(TASKS, journal_path=path, resume=True)
    resumed_s = time.perf_counter() - start

    assert resumed == executed, "resume did not reproduce the outcomes"
    recovery = SweepJournal.recover(path)
    assert len(recovery.completed) == len(TASKS)

    write_bench(
        "BENCH_resilience.json",
        "resume_replay",
        {
            "workloads": [task.label for task in TASKS],
            "executed_seconds": executed_s,
            "resumed_seconds": resumed_s,
            "speedup": executed_s / resumed_s if resumed_s else float("inf"),
        },
    )
