"""Request coalescing: identical in-flight requests share one execution.

The map is keyed by the request's canonical digest
(:meth:`repro.serve.protocol.ServeRequest.digest`).  The first request for
a digest becomes the **leader** and owns the execution; every request that
arrives while the leader is still in flight **attaches** and awaits the
same future.  When the leader finishes, all attached requests receive the
*same canonical bytes* — coalescing is exact, not approximate.

Single-threaded by construction: the coalescer is only touched from the
server's event-loop thread, so a plain dict suffices.  Executor threads
never see it — they complete futures via ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Tuple


class Coalescer:
    """Digest → in-flight future map with leader/attacher accounting."""

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._attached = 0
        self._led = 0

    def lead_or_attach(
        self, digest: str, loop: asyncio.AbstractEventLoop
    ) -> Tuple[bool, "asyncio.Future[bytes]"]:
        """Return ``(is_leader, future)`` for a digest.

        The leader must eventually :meth:`resolve` or :meth:`fail` the
        digest — attached requests block on that future.
        """
        future = self._inflight.get(digest)
        if future is not None:
            self._attached += 1
            return False, future
        future = loop.create_future()
        self._inflight[digest] = future
        self._led += 1
        return True, future

    def resolve(self, digest: str, payload: bytes) -> None:
        """Fan the canonical bytes out to the leader and all attachers."""
        future = self._inflight.pop(digest, None)
        if future is not None and not future.done():
            future.set_result(payload)

    def fail(self, digest: str, exc: BaseException) -> None:
        """Fan a failure out — attached requests fail with the leader."""
        future = self._inflight.pop(digest, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    def abandon_all(self, exc: BaseException) -> None:
        """Fail every in-flight digest (shutdown path)."""
        for digest in list(self._inflight):
            self.fail(digest, exc)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        return {
            "inflight": len(self._inflight),
            "led": self._led,
            "attached": self._attached,
        }
