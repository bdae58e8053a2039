"""Hierarchical span tracing: run → iteration → phase.

A :class:`Span` is a named, timed region with attached attributes (bytes
by link class, frontier size, cache hit/miss, fault events).  Spans nest:
the :class:`Tracer` keeps an open-span stack, so a ``traverse`` span opened
while an ``iteration`` span is active records that iteration as its parent.

Two tracer implementations share a tiny duck-typed surface (``enabled``,
``span()``, ``event()``):

* :class:`Tracer` — the real thing; collects spans in start order.
* :class:`NoOpTracer` — the disabled default.  Every method is a constant
  no-op returning shared singletons; instrumented hot paths additionally
  guard with ``if tracer.enabled:`` so the disabled cost is one attribute
  load per *phase*, never per edge.  :data:`NOOP_TRACER` is the module
  singleton and the initial active tracer.

The active tracer is process-global (:func:`get_tracer` /
:func:`set_tracer` / :func:`use_tracer`).  Sweep workers build their own
:class:`Tracer` per task, serialize it with :meth:`Tracer.to_batch`
(plain tuples/dicts — picklable across process boundaries), and the
parent grafts the batch under its own timeline with
:meth:`Tracer.adopt_batch`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Well-known span categories, for exporters and filters.
CATEGORY_RUN = "run"
CATEGORY_ITERATION = "iteration"
CATEGORY_PHASE = "phase"
CATEGORY_EVENT = "event"
CATEGORY_TASK = "task"

SpanBatch = Tuple[Dict[str, Any], ...]


class Span:
    """One named, timed region of a traced execution."""

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        start_s: float,
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self._tracer = tracer

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute (overwrites an existing key)."""
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        """Attach several attributes at once."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> Optional[float]:
        """Wall-clock duration, or None while the span is still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def finish(self) -> None:
        """Close the span (idempotent); ``with`` blocks call this for you."""
        if self.end_s is None:
            self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Picklable / JSON-able snapshot of this span."""
        return {
            "name": self.name,
            "category": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_s is None else f"{self.duration_s:.6f}s"
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"id={self.span_id}, parent={self.parent_id}, {state})"
        )


class _NoOpSpan:
    """Shared inert span: every mutation is a constant-time no-op."""

    __slots__ = ()

    name = ""
    category = ""
    span_id = -1
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attrs: Mapping[str, Any] = {}

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NoOpSpan()"


NOOP_SPAN = _NoOpSpan()


class NoOpTracer:
    """Disabled tracer: ``enabled`` is False and every call is inert.

    Instrumentation sites treat this exactly like an absent tracer — the
    bit-identity test in ``tests/obs`` asserts that running with
    :data:`NOOP_TRACER` produces the same ledgers and counters as running
    with no tracer at all.
    """

    __slots__ = ()

    enabled = False
    spans: Tuple[Span, ...] = ()

    def span(self, name: str, *, category: str = CATEGORY_PHASE, **attrs: Any):
        return NOOP_SPAN

    def event(self, name: str, *, category: str = CATEGORY_EVENT, **attrs: Any):
        return NOOP_SPAN

    def current(self):
        return NOOP_SPAN

    def to_batch(self) -> SpanBatch:
        return ()

    def adopt_batch(self, batch: Sequence[Mapping[str, Any]]) -> None:
        pass

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NoOpTracer()"


NOOP_TRACER = NoOpTracer()


class Tracer:
    """Collects a tree of :class:`Span` objects in start order.

    ``clock`` is injectable so exporter golden tests can produce
    byte-stable output; it must be a zero-argument callable returning
    monotonically non-decreasing seconds (default
    :func:`time.perf_counter`).

    ``on_span_end`` listeners fire synchronously when a span closes —
    the live ``--progress`` reporter and the streaming JSONL exporter
    hang off this hook.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        on_span_end: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self._clock = clock
        self._next_id = 0
        self._stack: List[Span] = []
        self._spans: List[Span] = []
        self._listeners: List[Callable[[Span], None]] = []
        if on_span_end is not None:
            self._listeners.append(on_span_end)

    @property
    def spans(self) -> Tuple[Span, ...]:
        """All spans recorded so far, in start order."""
        return tuple(self._spans)

    def current(self) -> Optional[Span]:
        """Innermost open span, or None at top level."""
        return self._stack[-1] if self._stack else None

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Register a callable fired with each span as it closes."""
        self._listeners.append(listener)

    def span(
        self, name: str, *, category: str = CATEGORY_PHASE, **attrs: Any
    ) -> Span:
        """Open a child span of the innermost open span.

        Use as a context manager; the span closes (and listeners fire)
        when the ``with`` block exits.
        """
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, category, self._next_id, parent, self._clock(), self)
        self._next_id += 1
        if attrs:
            span.attrs.update(attrs)
        self._spans.append(span)
        self._stack.append(span)
        return span

    def event(
        self, name: str, *, category: str = CATEGORY_EVENT, **attrs: Any
    ) -> Span:
        """Record an instant (zero-duration) span under the current span."""
        parent = self._stack[-1].span_id if self._stack else None
        now = self._clock()
        span = Span(name, category, self._next_id, parent, now, self)
        self._next_id += 1
        span.end_s = now
        if attrs:
            span.attrs.update(attrs)
        self._spans.append(span)
        for listener in self._listeners:
            listener(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_s = self._clock()
        # Normally `span` is the stack top; tolerate mis-nested exits by
        # removing it wherever it sits so the stack cannot leak.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - defensive
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        for listener in self._listeners:
            listener(span)

    # ----------------------------------------------------------------- #
    # Cross-process batches
    # ----------------------------------------------------------------- #

    def to_batch(self) -> SpanBatch:
        """Serialize every span as plain dicts (picklable, JSON-able)."""
        return tuple(span.to_dict() for span in self._spans)

    def adopt_batch(self, batch: Sequence[Mapping[str, Any]]) -> None:
        """Graft spans serialized by another tracer under the current span.

        Span ids are remapped into this tracer's id space; roots of the
        batch are re-parented onto the innermost open span.  Timestamps
        are shifted so the batch's latest end lines up with *now* — the
        worker's clock base is meaningless in this process, but relative
        durations inside the batch are preserved.
        """
        if not batch:
            return
        parent = self._stack[-1].span_id if self._stack else None
        ends = [d["end_s"] for d in batch if d.get("end_s") is not None]
        shift = self._clock() - max(ends) if ends else 0.0
        id_map: Dict[int, int] = {}
        for d in batch:
            id_map[d["id"]] = self._next_id
            self._next_id += 1
        for d in batch:
            raw_parent = d.get("parent")
            span = Span(
                d["name"],
                d.get("category", CATEGORY_PHASE),
                id_map[d["id"]],
                id_map.get(raw_parent, parent) if raw_parent is not None else parent,
                d["start_s"] + shift,
                self,
            )
            if d.get("end_s") is not None:
                span.end_s = d["end_s"] + shift
            span.attrs.update(d.get("attrs", {}))
            self._spans.append(span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(spans={len(self._spans)}, open={len(self._stack)})"


# --------------------------------------------------------------------------- #
# Process-global active tracer
# --------------------------------------------------------------------------- #

_active: Any = NOOP_TRACER


def get_tracer():
    """The process-global active tracer (:data:`NOOP_TRACER` by default)."""
    return _active


def set_tracer(tracer) -> Any:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = NOOP_TRACER if tracer is None else tracer
    return previous


@contextmanager
def use_tracer(tracer) -> Iterator[Any]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)


# --------------------------------------------------------------------------- #
# Batch stamping (cross-host attribution)
# --------------------------------------------------------------------------- #

def stamp_batch(
    batch: Sequence[Mapping[str, Any]], **attrs: Any
) -> SpanBatch:
    """Copy of a span batch with ``attrs`` merged into every span.

    Used by the distributed sweep coordinator to stamp ``host=`` /
    ``worker=`` onto batches received over the wire *before* adopting
    them, so a stitched cross-host trace records where each task actually
    ran.  The input batch is not mutated; per-span attrs win nothing —
    stamped keys overwrite existing ones.
    """
    stamped = []
    for d in batch:
        merged = dict(d)
        merged["attrs"] = {**dict(d.get("attrs") or {}), **attrs}
        stamped.append(merged)
    return tuple(stamped)

