"""Shared graph pool: ref-counted pinned CSR graphs with LRU eviction.

Loading (usually *generating*) a dataset dominates the cold path of a
served request — the simulators themselves are fast.  The pool keeps each
distinct ``(dataset, tier, seed, scale_shift)`` graph resident exactly
once and hands out leases:

* a graph with outstanding leases is **pinned** — eviction never touches
  it, so concurrent requests share one CSR instance zero-copy (CSR arrays
  are read-only for the engine);
* once the last lease is released the graph stays *warm* for repeat
  tenants until the byte budget forces it out, least-recently-used first.

Loads of the same key are single-flighted: when ten requests for a cold
graph arrive together, one thread generates it and nine wait — the
in-process analogue of request coalescing, one layer down.

The pool is thread-safe; executor worker threads acquire and release
concurrently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.api import RunSpec
from repro.graph.csr import CSRGraph

#: Pool key: everything that determines a generated dataset's content.
PoolKey = Tuple[str, str, int, int]


def pool_key(spec: RunSpec) -> PoolKey:
    return (spec.dataset, spec.tier, spec.seed, spec.scale_shift)


def graph_nbytes(graph: CSRGraph) -> int:
    """Resident CSR footprint: index arrays plus weights when present."""
    total = graph.indptr.nbytes + graph.indices.nbytes
    if graph.weights is not None:
        total += graph.weights.nbytes
    return int(total)


@dataclass
class _Entry:
    graph: CSRGraph
    graph_name: str
    nbytes: int
    refs: int = 0
    last_used: float = field(default_factory=time.monotonic)
    hits: int = 0


class GraphLease:
    """One request's hold on a pooled graph; release exactly once."""

    __slots__ = ("pool", "key", "graph", "graph_name", "_released")

    def __init__(
        self, pool: "GraphPool", key: PoolKey, graph: CSRGraph, graph_name: str
    ) -> None:
        self.pool = pool
        self.key = key
        self.graph = graph
        self.graph_name = graph_name
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.pool._release(self.key)

    def __enter__(self) -> "GraphLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class GraphPool:
    """Ref-counted, byte-budgeted pool of loaded CSR graphs."""

    def __init__(self, *, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = max_bytes
        self._lock = threading.Condition()
        self._entries: Dict[PoolKey, _Entry] = {}
        self._loading: set = set()
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #

    def acquire(self, spec: RunSpec) -> GraphLease:
        """Lease the graph a spec describes, loading it on first use.

        Concurrent acquires of a cold key block on the one loading thread
        instead of generating the graph N times.
        """
        key = pool_key(spec)
        with self._lock:
            while True:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.refs += 1
                    entry.hits += 1
                    entry.last_used = time.monotonic()
                    return GraphLease(self, key, entry.graph, entry.graph_name)
                if key in self._loading:
                    self._lock.wait()
                    continue
                self._loading.add(key)
                break
        try:
            from repro.api import load_dataset

            graph, ds = load_dataset(
                spec.dataset,
                tier=spec.tier,
                seed=spec.seed,
                scale_shift=spec.scale_shift,
            )
        except BaseException:
            with self._lock:
                self._loading.discard(key)
                self._lock.notify_all()
            raise
        with self._lock:
            self._loading.discard(key)
            entry = _Entry(
                graph=graph, graph_name=ds.name, nbytes=graph_nbytes(graph), refs=1
            )
            self._entries[key] = entry
            self._evict_over_budget()
            self._lock.notify_all()
            return GraphLease(self, key, entry.graph, entry.graph_name)

    def _release(self, key: PoolKey) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:  # released after clear(); nothing to do
                return
            entry.refs = max(0, entry.refs - 1)
            entry.last_used = time.monotonic()
            self._evict_over_budget()

    # ------------------------------------------------------------------ #
    # Eviction + introspection
    # ------------------------------------------------------------------ #

    def _evict_over_budget(self) -> None:
        """Drop unpinned LRU entries until within budget (lock held).

        Pinned entries can legitimately exceed the budget — shedding an
        *in-use* graph would crash its requests; admission control is the
        mechanism that bounds how many graphs get pinned at once.
        """
        if self.max_bytes is None:
            return
        total = sum(e.nbytes for e in self._entries.values())
        if total <= self.max_bytes:
            return
        victims = sorted(
            (
                (entry.last_used, key)
                for key, entry in self._entries.items()
                if entry.refs == 0
            ),
        )
        for _stamp, key in victims:
            if total <= self.max_bytes:
                break
            total -= self._entries.pop(key).nbytes
            self._evictions += 1

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    @property
    def pinned_count(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if e.refs > 0)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "max_bytes": self.max_bytes,
                "pinned": sum(1 for e in self._entries.values() if e.refs > 0),
                "evictions": self._evictions,
                "graphs": {
                    "/".join(map(str, key)): {
                        "bytes": entry.nbytes,
                        "refs": entry.refs,
                        "hits": entry.hits,
                    }
                    for key, entry in self._entries.items()
                },
            }

    def clear(self) -> None:
        """Drop every entry (shutdown path).  Outstanding leases keep
        their graph objects alive via their own references; the pool
        itself forgets everything."""
        with self._lock:
            self._entries.clear()
