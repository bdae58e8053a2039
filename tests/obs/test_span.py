"""Span/tracer invariants: nesting, ordering, batches, structural views."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.span import (
    CATEGORY_EVENT,
    CATEGORY_ITERATION,
    CATEGORY_PHASE,
    CATEGORY_RUN,
    NOOP_SPAN,
    NOOP_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from support.spans import structural_view


class FakeClock:
    """Deterministic monotonic clock: each call advances one second."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestNesting:
    def test_children_record_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run", category=CATEGORY_RUN) as run:
            with tracer.span("iteration", category=CATEGORY_ITERATION) as it:
                with tracer.span("traverse", category=CATEGORY_PHASE) as tr:
                    pass
        assert run.parent_id is None
        assert it.parent_id == run.span_id
        assert tr.parent_id == it.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("iteration") as it:
            with tracer.span("profile") as a:
                pass
            with tracer.span("traverse") as b:
                pass
        assert a.parent_id == it.span_id
        assert b.parent_id == it.span_id

    def test_spans_in_start_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]
        ids = [s.span_id for s in tracer.spans]
        assert ids == sorted(ids)

    def test_ordering_invariants(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        # Parent opens before and closes after its child.
        assert outer.start_s < inner.start_s
        assert inner.end_s < outer.end_s
        assert inner.duration_s >= 0.0

    def test_current_tracks_stack(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_finish_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("x")
        span.finish()
        end = span.end_s
        span.finish()
        assert span.end_s == end

    def test_event_is_instant_and_nested(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("iteration") as it:
            ev = tracer.event("cache-get", kind="dataset", outcome="hit")
        assert ev.parent_id == it.span_id
        assert ev.end_s == ev.start_s
        assert ev.category == CATEGORY_EVENT
        assert ev.attrs == {"kind": "dataset", "outcome": "hit"}

    def test_attrs_api(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", frontier_size=10) as span:
            span.set_attr("edges", 42)
            span.set_attrs(host_link_bytes=7, network_bytes=9)
        assert span.attrs == {
            "frontier_size": 10,
            "edges": 42,
            "host_link_bytes": 7,
            "network_bytes": 9,
        }

    def test_listeners_fire_on_close_in_close_order(self):
        tracer = Tracer(clock=FakeClock())
        closed = []
        tracer.add_listener(lambda s: closed.append(s.name))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert closed == ["inner", "outer"]


class TestNoOp:
    def test_disabled_surface(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.span("x") is NOOP_SPAN
        assert NOOP_TRACER.event("x") is NOOP_SPAN
        assert NOOP_TRACER.to_batch() == ()

    def test_noop_span_is_inert(self):
        with NOOP_TRACER.span("x") as span:
            span.set_attr("a", 1)
            span.set_attrs(b=2)
        assert span.to_dict() == {}
        assert dict(span.attrs) == {}

    def test_active_tracer_default_and_scoping(self):
        assert get_tracer() is NOOP_TRACER
        tracer = Tracer(clock=FakeClock())
        with use_tracer(tracer):
            assert get_tracer() is tracer
            inner = Tracer(clock=FakeClock())
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is NOOP_TRACER

    def test_set_tracer_none_restores_noop(self):
        previous = set_tracer(None)
        try:
            assert get_tracer() is NOOP_TRACER
        finally:
            set_tracer(previous)


class TestBatches:
    def _worker_batch(self):
        worker = Tracer(clock=FakeClock(100.0))
        with worker.span("task", label="t"):
            with worker.span("iteration"):
                worker.event("cache-get", outcome="miss")
        return worker.to_batch()

    def test_batch_is_picklable_plain_data(self):
        batch = self._worker_batch()
        assert isinstance(batch, tuple)
        assert all(isinstance(d, dict) for d in batch)
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_adopt_remaps_ids_and_reparents(self):
        batch = self._worker_batch()
        parent = Tracer(clock=FakeClock(500.0))
        with parent.span("sweep") as sweep:
            parent.adopt_batch(batch)
        spans = {s.name: s for s in parent.spans}
        assert spans["task"].parent_id == sweep.span_id
        assert spans["iteration"].parent_id == spans["task"].span_id
        ids = [s.span_id for s in parent.spans]
        assert len(set(ids)) == len(ids)

    def test_adopt_shifts_times_into_parent_clock(self):
        batch = self._worker_batch()
        parent = Tracer(clock=FakeClock(500.0))
        with parent.span("sweep") as sweep:
            parent.adopt_batch(batch)
        adopted = [s for s in parent.spans if s is not sweep]
        # The batch's latest end is rebased to the adoption instant
        # (clock reads: 501 = sweep start, 502 = adoption)...
        assert max(s.end_s for s in adopted) == pytest.approx(502.0)
        assert all(s.end_s <= 502.0 for s in adopted)
        # ...with relative durations preserved.
        task = next(s for s in adopted if s.name == "task")
        orig_task = next(d for d in batch if d["name"] == "task")
        assert task.duration_s == pytest.approx(
            orig_task["end_s"] - orig_task["start_s"]
        )

    def test_adopt_empty_batch_is_noop(self):
        tracer = Tracer(clock=FakeClock())
        tracer.adopt_batch(())
        assert tracer.spans == ()

    def test_structural_view_ignores_timing_and_ids(self):
        a = self._worker_batch()
        b = self._worker_batch()  # fresh tracer: same structure, new clock
        assert structural_view(a) == structural_view(b)

    def test_structural_view_sees_attr_differences(self):
        t1 = Tracer(clock=FakeClock())
        with t1.span("task", label="x"):
            pass
        t2 = Tracer(clock=FakeClock())
        with t2.span("task", label="y"):
            pass
        assert structural_view(t1.to_batch()) != structural_view(t2.to_batch())

    def test_structural_view_survives_adoption(self):
        batch = self._worker_batch()
        parent = Tracer(clock=FakeClock(900.0))
        parent.adopt_batch(batch)
        assert structural_view(parent.to_batch()) == structural_view(batch)


class TestSpanDict:
    def test_to_dict_roundtrip_fields(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", category=CATEGORY_PHASE, a=1) as span:
            pass
        d = span.to_dict()
        assert d["name"] == "s"
        assert d["category"] == CATEGORY_PHASE
        assert d["id"] == span.span_id
        assert d["parent"] is None
        assert d["end_s"] > d["start_s"]
        assert d["attrs"] == {"a": 1}
        # Snapshot, not a view.
        d["attrs"]["a"] = 2
        assert span.attrs["a"] == 1
