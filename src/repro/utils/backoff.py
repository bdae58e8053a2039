"""Shared retry/backoff policy: capped exponential delays.

Three call sites grew their own copies of the same arithmetic — the
supervised sweep's between-round sleep in ``experiments/sweep.py``, the
remote scheduler's task-requeue delay, and the serving daemon's
``Retry-After`` hint in ``serve/admission.py``.  This module is the one
implementation they all share.

The core primitive is :func:`exponential_delay`: attempt ``k`` waits
``min(cap, base * 2**k)`` seconds — a pure function of the attempt, so
two runs of the same sweep produce the same retry schedule.

:class:`BackoffPolicy` packages the parameters so they can be threaded
through call stacks (the sweep coordinator, admission config) as one value.
"""

from __future__ import annotations

from dataclasses import dataclass


def exponential_delay(attempt: int, *, base: float = 0.25, cap: float = 8.0) -> float:
    """Delay in seconds before retry number ``attempt`` (0-based):
    ``min(cap, base * 2**attempt)``."""
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base < 0.0 or cap < 0.0:
        raise ValueError(f"base/cap must be >= 0, got base={base} cap={cap}")
    # 2**attempt overflows nothing (Python ints), but short-circuit huge
    # exponents so base * 2**1000 never materialises a bignum float error.
    if base > 0.0 and attempt < 64:
        return min(cap, base * (2.0 ** attempt))
    return cap if base > 0.0 else 0.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff parameters as one threadable value."""

    base_s: float = 0.25
    cap_s: float = 8.0

    def __post_init__(self) -> None:
        # Reuse the validation in exponential_delay for attempt 0.
        exponential_delay(0, base=self.base_s, cap=self.cap_s)

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based)."""
        return exponential_delay(attempt, base=self.base_s, cap=self.cap_s)


def retry_after_hint(
    streak: int, *, base: float = 1.0, cap: float = 8.0
) -> float:
    """Client-facing backoff hint that grows with consecutive rejections.

    Used by serve admission: the first shed suggests ``base`` seconds,
    and a sustained overload doubles the hint up to ``cap`` so clients
    spread out instead of hammering a full queue in lockstep.
    """
    return exponential_delay(max(0, streak - 1), base=base, cap=cap)
