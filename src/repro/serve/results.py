"""Content-addressed result cache for served requests.

Completed responses are canonical bytes keyed by the request's canonical
digest (:meth:`repro.serve.protocol.ServeRequest.digest`).  Two layers:

* an in-memory LRU of the hottest entries — microsecond hits, bounded by
  entry count (responses are small: summaries and digests, not arrays);
* optionally the process's content-addressed :class:`ArtifactCache`
  (``repro.cache``) under the ``result`` kind, so results survive daemon
  restarts and are shared with any other process pointed at the same
  cache directory.

Both layers store the exact response bytes, so a cache hit is
*bit-identical* to the execution that produced it — the same guarantee
request coalescing gives concurrent requests, extended through time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from repro.cache.keys import result_key
from repro.cache.store import ArtifactCache


class ResultCache:
    """Two-layer (memory LRU + artifact store) cache of response bytes."""

    def __init__(
        self,
        *,
        memory_entries: int = 256,
        artifacts: Optional[ArtifactCache] = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError(f"memory_entries must be >= 1, got {memory_entries}")
        self.memory_entries = memory_entries
        self.artifacts = artifacts
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, digest: str) -> Optional[bytes]:
        """Cached response bytes for a request digest, or ``None``."""
        with self._lock:
            payload = self._memory.get(digest)
            if payload is not None:
                self._memory.move_to_end(digest)
                self._hits += 1
                return payload
        if self.artifacts is not None:
            entry = self.artifacts.get("result", result_key(digest))
            if entry is not None:
                arrays, _meta = entry
                blob = arrays.get("payload")
                if blob is not None:
                    payload = bytes(np.asarray(blob, dtype=np.uint8).tobytes())
                    with self._lock:
                        self._remember(digest, payload)
                        self._hits += 1
                    return payload
        with self._lock:
            self._misses += 1
        return None

    def put(self, digest: str, payload: bytes, *, gen_seconds: float = 0.0) -> None:
        """Store response bytes under a request digest (both layers)."""
        with self._lock:
            self._remember(digest, payload)
        if self.artifacts is not None:
            self.artifacts.put(
                "result",
                result_key(digest),
                {"payload": np.frombuffer(payload, dtype=np.uint8)},
                meta={"request_digest": digest},
                gen_seconds=gen_seconds,
            )

    def _remember(self, digest: str, payload: bytes) -> None:
        self._memory[digest] = payload
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "memory_entries": len(self._memory),
                "memory_limit": self.memory_entries,
                "hits": self._hits,
                "misses": self._misses,
                "persistent": self.artifacts is not None,
            }
