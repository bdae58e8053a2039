"""Admission control: priority queue, per-tenant quotas, load shedding.

The daemon never queues unboundedly and never hangs a client.  Admission
happens *before* a request touches the queue, in three checks:

1. **rate limit** — a per-tenant token bucket (``tenant_rate``/s sustained,
   ``tenant_burst`` burst) rejects with :class:`QuotaExceeded`;
2. **in-flight quota** — a per-tenant cap on queued+executing requests
   rejects with :class:`QuotaExceeded`;
3. **queue depth** — a global bound on admitted-but-waiting requests sheds
   with :class:`Overloaded` (carrying a ``retry_after_s`` hint).

Admitted requests wait in a priority queue (higher ``priority`` first,
FIFO within a priority level) for a worker slot.  All methods are called
from the server's single event-loop thread, so the structures need no
locking; the clock is injectable for deterministic tests.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import Overloaded, QuotaExceeded
from repro.utils.backoff import retry_after_hint


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s sustained, ``burst`` cap."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def try_take(self, now: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(order=True)
class _QueueItem:
    sort_key: tuple
    ticket: "Ticket" = field(compare=False)


@dataclass
class Ticket:
    """One admitted request's place in line."""

    tenant: str
    priority: int
    cancelled: bool = False
    #: the server attaches its queued job here (opaque to admission)
    job: Any = field(default=None, repr=False)


class AdmissionController:
    """Typed-fast-failure gatekeeper plus the priority wait queue."""

    def __init__(
        self,
        *,
        max_queue_depth: int,
        tenant_rate: Optional[float] = None,
        tenant_burst: int = 16,
        tenant_max_inflight: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_queue_depth = max_queue_depth
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.tenant_max_inflight = tenant_max_inflight
        self.clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight: Dict[str, int] = {}
        self._heap: list = []
        self._seq = 0
        self._queued = 0
        self._shed = 0
        self._shed_streak = 0
        self._quota_rejects = 0

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def admit(self, tenant: str, priority: int) -> Ticket:
        """Admit or reject, never wait.

        Returns a :class:`Ticket` already placed in the priority queue.
        Raises :class:`QuotaExceeded` (tenant budget) or
        :class:`Overloaded` (global queue full).
        """
        now = self.clock()
        if self.tenant_rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, self.tenant_burst, now
                )
            if not bucket.try_take(now):
                self._quota_rejects += 1
                raise QuotaExceeded(
                    f"tenant {tenant!r} exceeded its rate limit "
                    f"({self.tenant_rate:g} req/s, burst {self.tenant_burst})",
                    tenant=tenant,
                )
        if (
            self.tenant_max_inflight is not None
            and self._inflight.get(tenant, 0) >= self.tenant_max_inflight
        ):
            self._quota_rejects += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} already has "
                f"{self._inflight[tenant]} requests in flight "
                f"(cap {self.tenant_max_inflight})",
                tenant=tenant,
            )
        if self._queued >= self.max_queue_depth:
            self._shed += 1
            self._shed_streak += 1
            # Consecutive sheds escalate the hint (1s, 2s, 4s, ... capped)
            # so clients back off harder the longer the overload lasts.
            raise Overloaded(
                f"queue full ({self._queued}/{self.max_queue_depth} admitted "
                "requests waiting); shedding",
                retry_after_s=retry_after_hint(self._shed_streak),
            )
        self._shed_streak = 0
        ticket = Ticket(tenant=tenant, priority=priority)
        self._seq += 1
        # Higher priority first; FIFO within a level.
        heapq.heappush(self._heap, _QueueItem((-priority, self._seq), ticket))
        self._queued += 1
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        return ticket

    def pop(self) -> Optional[Ticket]:
        """Highest-priority waiting ticket, or ``None`` when idle."""
        while self._heap:
            ticket = heapq.heappop(self._heap).ticket
            self._queued -= 1
            if ticket.cancelled:
                continue
            return ticket
        return None

    def done(self, ticket: Ticket) -> None:
        """Release a ticket's tenant slot (request finished or failed)."""
        count = self._inflight.get(ticket.tenant, 0)
        if count <= 1:
            self._inflight.pop(ticket.tenant, None)
        else:
            self._inflight[ticket.tenant] = count - 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def queued(self) -> int:
        return self._queued

    def stats(self) -> Dict[str, Any]:
        return {
            "queued": self._queued,
            "max_queue_depth": self.max_queue_depth,
            "shed": self._shed,
            "quota_rejects": self._quota_rejects,
            "inflight_by_tenant": dict(self._inflight),
            "tenant_rate": self.tenant_rate,
            "tenant_burst": self.tenant_burst,
            "tenant_max_inflight": self.tenant_max_inflight,
        }
