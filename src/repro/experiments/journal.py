"""Append-only write-ahead journal for crash-safe, resumable sweeps.

A journaled sweep writes one JSONL record per event to a single file:

* ``header`` — first line; pins the exact task list by content-addressed
  digest (canonical-JSON sha256, the same scheme as
  :func:`repro.cache.keys.canonical_key`) plus the serialized tasks
  themselves, so a resume can both *validate* it is continuing the same
  sweep and *reconstruct* what that sweep was;
* ``start`` — task ``idx`` began attempt ``attempt`` (parent-side, written
  at submission);
* ``outcome`` — task ``idx`` finished with ``status`` ``ok`` / ``failed``
  / ``quarantined`` and, for ``ok``, the full serialized
  :class:`~repro.experiments.sweep.SweepOutcome` (including
  ``ledger_sha256``, which is what resume-equivalence is judged by);
* ``interrupt`` — the sweep shut down gracefully on a signal;
* ``end`` — the sweep completed.

Durability: ``header``, ``outcome``, ``interrupt`` and ``end`` records are
``fsync``'d as written (``start`` records are only flushed — losing one
merely re-runs a task, which is always safe).  Every record carries a
``crc`` field (truncated sha256 of its canonical JSON body), so recovery
distinguishes "torn tail from a crashed writer" from "silent corruption"
— both are discarded, and the journal is truncated back to its longest
valid prefix before new records are appended.

Recovery (:meth:`SweepJournal.recover`) is a pure scan: a record is valid
iff its line is newline-terminated, parses as JSON, and its crc matches.
The scan stops at the first invalid record; everything before it is the
recovered state.  A resumed sweep re-runs every task without an ``ok``
outcome (in-flight, failed, or quarantined) and reuses the journaled
outcomes of the rest verbatim — which is why a resumed sweep's merged
results are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import PolicySpec
from repro.cache.keys import canonical_key
from repro.errors import JournalError

#: Bump when the record layout changes; old journals then refuse to resume
#: instead of silently misreading.
JOURNAL_VERSION = 1

_DURABLE_TYPES = frozenset({"header", "outcome", "interrupt", "end"})


# --------------------------------------------------------------------------- #
# Task / outcome (de)serialization
# --------------------------------------------------------------------------- #


def task_to_json(task: Any) -> Dict[str, Any]:
    """Serialize a ``SweepTask`` (plus nested ``FaultSpec``/``PolicySpec``)
    to plain JSON."""
    record = asdict(task)
    if record.get("policy") is None:
        # Absent when unset so pre-policy task digests stay stable.
        record.pop("policy", None)
    return record


def task_from_json(record: Mapping[str, Any]) -> Any:
    """Reconstruct a ``SweepTask`` serialized by :func:`task_to_json`."""
    from repro.experiments.sweep import SweepTask
    from repro.faults.schedule import FaultSpec

    data = dict(record)
    if data.get("fault_spec") is not None:
        data["fault_spec"] = FaultSpec(**data["fault_spec"])
    if data.get("policy") is not None:
        data["policy"] = PolicySpec(**data["policy"])
    return SweepTask(**data)


def task_digest(task: Any) -> str:
    """Content-addressed digest of one task (canonical-JSON sha256)."""
    return canonical_key("sweep-task", task_to_json(task))


def sweep_digest(tasks: Sequence[Any]) -> str:
    """Content-addressed digest pinning an ordered task list."""
    return canonical_key("sweep", {"tasks": [task_to_json(t) for t in tasks]})


def outcome_to_json(outcome: Any) -> Dict[str, Any]:
    """Serialize a ``SweepOutcome`` minus its task object and span batch.

    The task is identified by journal index + digest (the header carries
    the full task list), and spans are process-local observability, not
    results — both are restored structurally on load.
    """
    record = asdict(outcome)
    record.pop("task", None)
    record.pop("spans", None)
    return record


def outcome_from_json(record: Mapping[str, Any], task: Any) -> Any:
    """Reconstruct a ``SweepOutcome`` against the live ``task`` object.

    Every numeric field is an int and every digest a string, so the JSON
    round-trip is exact — a journaled outcome compares equal to the
    outcome the original process computed.
    """
    from repro.experiments.sweep import SweepOutcome

    return SweepOutcome(
        task=task,
        graph_name=record["graph_name"],
        num_iterations=int(record["num_iterations"]),
        fetch_bytes=tuple(int(b) for b in record["fetch_bytes"]),
        offload_bytes=tuple(int(b) for b in record["offload_bytes"]),
        frontier=tuple(int(f) for f in record["frontier"]),
        result_sha256=record["result_sha256"],
        cache_hits=int(record["cache_hits"]),
        cache_misses=int(record["cache_misses"]),
        fetch_recovery_bytes=int(record.get("fetch_recovery_bytes", 0)),
        offload_recovery_bytes=int(record.get("offload_recovery_bytes", 0)),
        ledger_sha256=record.get("ledger_sha256", ""),
        attempts=int(record.get("attempts", 1)),
        error=record.get("error"),
        quarantined=bool(record.get("quarantined", False)),
    )


# --------------------------------------------------------------------------- #
# Record encoding
# --------------------------------------------------------------------------- #


def _body_crc(record: Mapping[str, Any]) -> str:
    body = json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def encode_record(record: Mapping[str, Any]) -> bytes:
    """One journal line: canonical JSON + crc field + newline."""
    if "crc" in record:
        raise JournalError("record field 'crc' is reserved")
    stamped = {**record, "crc": _body_crc(record)}
    return (
        json.dumps(
            stamped, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        + b"\n"
    )


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse and validate one newline-*stripped* journal line.

    Returns the record dict, or ``None`` for anything torn or corrupt
    (non-JSON, missing crc, crc mismatch).
    """
    try:
        record = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if crc is None or _body_crc(record) != crc:
        return None
    return record


# --------------------------------------------------------------------------- #
# Recovery state
# --------------------------------------------------------------------------- #


@dataclass
class JournalRecovery:
    """Everything a resume needs, scanned from a journal's valid prefix."""

    path: Path
    header: Dict[str, Any]
    #: idx -> full ``outcome`` record (label, ledger_sha256, serialized
    #: outcome under ``"outcome"``), for tasks whose status is ``ok``
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: idx -> last non-ok status ("failed" / "quarantined")
    unfinished: Dict[int, str] = field(default_factory=dict)
    #: idx -> attempts started (in-flight when no outcome followed)
    started: Dict[int, int] = field(default_factory=dict)
    torn_records: int = 0
    valid_bytes: int = 0
    interrupted: bool = False
    ended: bool = False

    @property
    def sweep_key(self) -> str:
        return self.header["sweep"]

    def tasks(self) -> List[Any]:
        """The pinned task list, reconstructed from the header."""
        return [task_from_json(t) for t in self.header["tasks"]]

    def in_flight(self) -> Tuple[int, ...]:
        """Tasks started but never finished (the crash's collateral)."""
        return tuple(
            sorted(
                idx
                for idx in self.started
                if idx not in self.completed and idx not in self.unfinished
            )
        )


# --------------------------------------------------------------------------- #
# The journal
# --------------------------------------------------------------------------- #


class SweepJournal:
    """Append-only, fsync'd JSONL write-ahead journal for one sweep."""

    def __init__(self, path: str | os.PathLike, fh, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fh = fh
        self._fsync = fsync
        self._closed = False

    # ------------------------------------------------------------------ #
    # Opening
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        tasks: Sequence[Any],
        *,
        meta: Optional[Mapping[str, Any]] = None,
        fsync: bool = True,
    ) -> "SweepJournal":
        """Start a fresh journal: write and fsync the pinning header.

        Refuses to overwrite an existing non-empty journal — that is what
        resume (or deleting the file) is for.
        """
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            raise JournalError(
                f"journal {path} already exists; resume it or remove it "
                f"before starting a fresh sweep"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
        journal = cls(path, fh, fsync=fsync)
        journal.append(
            {
                "type": "header",
                "v": JOURNAL_VERSION,
                "sweep": sweep_digest(tasks),
                "tasks": [task_to_json(t) for t in tasks],
                "task_digests": [task_digest(t) for t in tasks],
                "created_ts": time.time(),
                "meta": dict(meta or {}),
            }
        )
        journal._sync_dir()
        return journal

    @classmethod
    def recover(cls, path: str | os.PathLike) -> JournalRecovery:
        """Scan a journal's longest valid prefix into a recovery state.

        Torn or corrupt records (including a partial final line) terminate
        the scan; they are *counted*, never raised.  A journal whose very
        first record is not a valid header raises :class:`JournalError` —
        there is nothing to resume from.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise JournalError(f"journal {path} does not exist") from None
        if not data:
            raise JournalError(f"journal {path} is empty")

        header: Optional[Dict[str, Any]] = None
        recovery: Optional[JournalRecovery] = None
        offset = 0
        torn = 0
        valid_bytes = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:  # partial final line: torn write
                torn += 1
                break
            record = decode_record(data[offset:newline])
            if record is None:
                torn += 1
                break
            offset = newline + 1
            if header is None:
                if record.get("type") != "header":
                    raise JournalError(
                        f"{path} is not a sweep journal (first record is "
                        f"{record.get('type')!r}, expected 'header')"
                    )
                if record.get("v") != JOURNAL_VERSION:
                    raise JournalError(
                        f"journal {path} has version {record.get('v')!r}; "
                        f"this build reads version {JOURNAL_VERSION}"
                    )
                header = record
                recovery = JournalRecovery(path=path, header=header)
            else:
                assert recovery is not None
                rtype = record.get("type")
                if rtype == "start":
                    idx = int(record["idx"])
                    recovery.started[idx] = max(
                        recovery.started.get(idx, 0), int(record["attempt"])
                    )
                elif rtype == "outcome":
                    idx = int(record["idx"])
                    if record.get("status") == "ok":
                        recovery.completed[idx] = record
                        recovery.unfinished.pop(idx, None)
                    else:
                        recovery.unfinished[idx] = record.get("status", "failed")
                        recovery.completed.pop(idx, None)
                elif rtype == "interrupt":
                    recovery.interrupted = True
                elif rtype == "end":
                    recovery.ended = True
                # Unknown record types are tolerated: forward-compatible.
            valid_bytes = offset
        if recovery is None:
            raise JournalError(
                f"journal {path} has no intact header record (torn at byte 0)"
            )
        recovery.torn_records = torn
        recovery.valid_bytes = valid_bytes
        return recovery

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike,
        tasks: Sequence[Any],
        *,
        fsync: bool = True,
    ) -> Tuple["SweepJournal", JournalRecovery]:
        """Recover ``path``, validate it pins ``tasks``, reopen for append.

        The file is truncated back to the recovered valid prefix first, so
        a torn tail can never corrupt records appended after it.
        """
        recovery = cls.recover(path)
        expected = sweep_digest(tasks)
        if recovery.sweep_key != expected:
            # Both full digests in the message: diffing a coordinator's
            # task view against a journal's is exactly how a mismatched
            # resume gets debugged (repro-experiments run sweep --dry-run
            # prints the current side).
            raise JournalError(
                f"journal {path} pins a different sweep (journal task-list "
                f"digest {recovery.sweep_key} != current task-list digest "
                f"{expected}); refusing to resume"
            )
        fh = open(path, "r+b")
        fh.truncate(recovery.valid_bytes)
        fh.seek(recovery.valid_bytes)
        journal = cls(path, fh, fsync=fsync)
        return journal, recovery

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one record; fsync when its type is durability-critical."""
        if self._closed:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.write(encode_record(record))
        self._fh.flush()
        if self._fsync and record.get("type") in _DURABLE_TYPES:
            os.fsync(self._fh.fileno())

    def start(self, idx: int, digest: str, attempt: int) -> None:
        self.append(
            {"type": "start", "idx": idx, "digest": digest, "attempt": attempt}
        )

    def outcome(self, idx: int, status: str, outcome: Any) -> None:
        self.append(
            {
                "type": "outcome",
                "idx": idx,
                "status": status,
                "label": outcome.task.label,
                "ledger_sha256": outcome.ledger_sha256,
                "outcome": outcome_to_json(outcome),
            }
        )

    def interrupt(self, reason: str) -> None:
        self.append({"type": "interrupt", "reason": reason, "ts": time.time()})

    def end(self, *, ok: int, failed: int) -> None:
        self.append({"type": "end", "ok": ok, "failed": failed})

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        finally:
            self._fh.close()

    def _sync_dir(self) -> None:
        """fsync the parent directory so the journal file itself survives."""
        if not self._fsync:
            return
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
