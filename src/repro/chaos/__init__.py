"""Deterministic *process-level* fault harness for the sweep runner.

:mod:`repro.faults` models hardware faults **inside** the simulation —
crashed memory nodes, failed NDP units, degraded links — and charges their
recovery to the movement ledger.  This package is the other half of the
fault story: it breaks the *processes doing the simulating*.  A chaos plan
SIGKILLs a worker mid-task, SIGSTOPs one so it hangs without dying, or
makes one exit without cleanup — the real failures a multi-hour sweep on
preemptible infrastructure actually sees.

Everything is seed-driven and deterministic: the same
:class:`ChaosSpec` over the same task list always picks the same victims,
so resumability is *proven* in tests and CI (kill → ``--resume`` →
bit-identical merged ledgers) rather than asserted.

The actions (``kill``/``hang``/``crash``) ride into sweep workers through
:func:`repro.experiments.sweep.run_sweep`'s ``chaos_plan`` and execute via
:func:`apply_in_worker` — a real ``SIGKILL``, a real ``SIGSTOP``, a real
``os._exit``.  No exception, no cleanup.  The same plan crosses the wire
under ``--scheduler remote``: the coordinator takes the action at dispatch
and ships it with the task, and the ``repro-worker`` process applies it to
*itself* before doing any work (:mod:`repro.experiments.remote`), so
distributed supervision is exercised by genuinely killed remote workers.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError

__all__ = [
    "CHAOS_KINDS",
    "ChaosPlan",
    "ChaosSpec",
    "apply_in_worker",
]

#: Worker-side chaos actions, in severity order:
#:
#: * ``crash`` — ``os._exit(3)``: the process vanishes the way an uncaught
#:   fatal signal or a C-level abort leaves it (connection drops, no
#:   traceback);
#: * ``kill``  — ``SIGKILL`` to self: identical to the OOM killer;
#: * ``hang``  — ``SIGSTOP`` to self: the process *freezes* without dying,
#:   keepalives stop, and its connection stays open — exactly the failure
#:   mode worker supervision exists to catch.
CHAOS_KINDS = ("crash", "kill", "hang")


def apply_in_worker(kind: str) -> None:
    """Execute a chaos action in the current (worker) process.

    Does not return for any valid ``kind``.  Runs *before* any task work,
    so the task is observably in-flight but produced nothing.
    """
    if kind == "crash":
        os._exit(3)
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        os.kill(os.getpid(), signal.SIGSTOP)
        return  # pragma: no cover - resumed only when supervision SIGCONTs
    raise ExperimentError(f"unknown chaos action {kind!r}; expected one of {CHAOS_KINDS}")


@dataclass
class ChaosPlan:
    """Per-task-label queues of chaos actions, consumed attempt by attempt.

    ``actions[label]`` is the ordered list of actions the label's next
    attempts will suffer; once drained, the task runs normally (which is
    how a killed task eventually succeeds on retry).  The plan is mutable
    runtime state — build a fresh one per sweep (see
    :meth:`ChaosSpec.plan`).
    """

    actions: Dict[str, List[str]] = field(default_factory=dict)

    def take(self, label: str) -> Optional[str]:
        """Pop and return the next action for ``label`` (None when clear)."""
        queue = self.actions.get(label)
        if queue:
            return queue.pop(0)
        return None

    def pending(self) -> int:
        """Actions not yet consumed (0 once every victim has been hit)."""
        return sum(len(q) for q in self.actions.values())


@dataclass(frozen=True)
class ChaosSpec:
    """Seed-driven recipe for a :class:`ChaosPlan` over a task list.

    ``kill_tasks`` / ``hang_tasks`` / ``crash_tasks`` count *distinct*
    victim tasks; each victim suffers its action ``repeats`` times (so
    ``repeats`` larger than the sweep's retry budget produces a poison
    task).  Victims are drawn without replacement from the label list via
    a PCG stream seeded by ``seed`` — same spec + same labels, same plan,
    in any process.
    """

    seed: int = 0
    kill_tasks: int = 0
    hang_tasks: int = 0
    crash_tasks: int = 0
    repeats: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_tasks", "hang_tasks", "crash_tasks"):
            if getattr(self, name) < 0:
                raise ExperimentError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.repeats < 1:
            raise ExperimentError(f"repeats must be >= 1, got {self.repeats}")

    @property
    def total_victims(self) -> int:
        return self.kill_tasks + self.hang_tasks + self.crash_tasks

    def plan(self, labels: Sequence[str]) -> ChaosPlan:
        """Choose victims among ``labels`` and build the concrete plan."""
        unique: List[str] = []
        seen = set()
        for label in labels:
            if label not in seen:
                seen.add(label)
                unique.append(label)
        wanted = self.total_victims
        if wanted > len(unique):
            raise ExperimentError(
                f"chaos spec wants {wanted} victim tasks but the sweep has "
                f"only {len(unique)} distinct labels"
            )
        rng = np.random.default_rng(self.seed)
        victims = [unique[i] for i in rng.permutation(len(unique))[:wanted]]
        plan = ChaosPlan()
        cursor = 0
        for kind, count in (
            ("kill", self.kill_tasks),
            ("hang", self.hang_tasks),
            ("crash", self.crash_tasks),
        ):
            for label in victims[cursor : cursor + count]:
                plan.actions[label] = [kind] * self.repeats
            cursor += count
        return plan
