"""End-to-end tracing invariants over the real simulators.

The acceptance properties of the observability layer:

* iteration-span byte attributes sum *exactly* to the run's movement
  ledger totals, for every architecture, with and without faults;
* tracing never perturbs the computation (traced vs untraced runs are
  bit-identical in ledgers, counters, and result properties);
* spans form a run → iteration → phase tree on every entry point, and a
  failed run leaves no span open;
* serial and parallel sweeps produce the same span *structure*.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.arch.compare import compare_architectures
from repro.arch.registry import get_architecture, list_architectures
from repro.errors import FaultError, RecoveryError
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.graph.datasets import load_dataset
from repro.kernels.registry import get_kernel
from repro.obs import tracing_session, validate_chrome_trace
from repro.obs.span import (
    CATEGORY_ITERATION,
    CATEGORY_PHASE,
    CATEGORY_RUN,
    NOOP_TRACER,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.runtime.config import SystemConfig
from support.spans import structural_view

TIER = "tiny"
SEED = 7
PARTS = 4
MAX_ITER = 5


def _graph():
    return load_dataset("wikitalk-sim", tier=TIER, seed=SEED)


def _traced_run(arch, *, faults=None, kernel="pagerank"):
    graph, ds = _graph()
    sim = get_architecture(arch, SystemConfig(num_memory_nodes=PARTS))
    prog = get_kernel(kernel)
    source = int(graph.out_degrees.argmax()) if prog.needs_source else None
    tracer = Tracer()
    with use_tracer(tracer):
        run = sim.run(
            graph,
            prog,
            source=source,
            max_iterations=MAX_ITER,
            graph_name=ds.name,
            seed=SEED,
            faults=faults,
        )
    return run, tracer


class TestByteAttributionAcceptance:
    """Per-iteration span bytes must sum exactly to the ledger totals."""

    @pytest.mark.parametrize("arch", sorted(list_architectures()))
    def test_iteration_bytes_sum_to_ledger(self, arch):
        run, tracer = _traced_run(arch)
        iters = [s for s in tracer.spans if s.category == CATEGORY_ITERATION]
        assert len(iters) == run.num_iterations
        assert (
            sum(s.attrs["host_link_bytes"] for s in iters)
            == run.total_host_link_bytes
        )
        assert (
            sum(s.attrs["network_bytes"] for s in iters)
            == run.total_network_bytes
        )
        assert (
            sum(s.attrs["recovery_bytes"] for s in iters)
            == run.total_recovery_bytes
        )

    @pytest.mark.parametrize("arch", sorted(list_architectures()))
    def test_bytes_sum_holds_under_faults(self, arch):
        faults = FaultSpec.standard(
            seed=3, num_parts=PARTS, replication_factor=2, horizon=MAX_ITER
        )
        run, tracer = _traced_run(arch, faults=faults)
        iters = [s for s in tracer.spans if s.category == CATEGORY_ITERATION]
        assert (
            sum(s.attrs["host_link_bytes"] for s in iters)
            == run.total_host_link_bytes
        )
        assert (
            sum(s.attrs["recovery_bytes"] for s in iters)
            == run.total_recovery_bytes
        )

    def test_run_span_totals_match_result(self):
        run, tracer = _traced_run("disaggregated-ndp")
        run_spans = [s for s in tracer.spans if s.category == CATEGORY_RUN]
        assert len(run_spans) == 1
        attrs = run_spans[0].attrs
        assert attrs["architecture"] == "disaggregated-ndp"
        assert attrs["iterations"] == run.num_iterations
        assert attrs["total_host_link_bytes"] == run.total_host_link_bytes
        assert attrs["total_network_bytes"] == run.total_network_bytes
        assert attrs["converged"] == run.converged

    def test_iterations_nest_under_run_span(self):
        _, tracer = _traced_run("disaggregated")
        run_span = next(
            s for s in tracer.spans if s.category == CATEGORY_RUN
        )
        for span in tracer.spans:
            if span.category == CATEGORY_ITERATION:
                assert span.parent_id == run_span.span_id


def _traced_compare(kernel="pagerank", max_iterations=MAX_ITER):
    graph, ds = _graph()
    tracer = Tracer()
    with use_tracer(tracer):
        comparison = compare_architectures(
            graph,
            get_kernel(kernel),
            config=SystemConfig(num_memory_nodes=PARTS),
            max_iterations=max_iterations,
            graph_name=ds.name,
            seed=SEED,
        )
    return comparison, tracer


def _run_modes(tracer):
    """The ``mode`` attribute of every ``run`` span, in start order."""
    return [s.attrs["mode"] for s in tracer.spans if s.category == CATEGORY_RUN]


class TestSpanTree:
    """Phases nest under iterations, iterations under runs, on every path."""

    @staticmethod
    def _assert_tree(tracer):
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            parent = by_id.get(span.parent_id)
            if span.category == CATEGORY_PHASE:
                assert parent is not None, span
                assert parent.category == CATEGORY_ITERATION, span
            elif span.category == CATEGORY_ITERATION:
                assert parent is not None, span
                assert parent.category == CATEGORY_RUN, span

    @pytest.mark.parametrize("arch", sorted(list_architectures()))
    def test_run_span_tree(self, arch):
        faults = FaultSchedule(
            events=(
                FaultEvent(1, FaultKind.MEMORY_NODE_CRASH, part=0),
                FaultEvent(2, FaultKind.MESSAGE_DROP, drop_fraction=0.5),
            ),
            replication_factor=2,
        )
        for run_faults in (None, faults):
            _, tracer = _traced_run(arch, faults=run_faults)
            self._assert_tree(tracer)
            assert _run_modes(tracer) == ["run"]
        # The faulted run exercised the accounting's recover phase.
        assert any(s.name == "recover" for s in tracer.spans)

    def test_compare_span_tree(self):
        _, tracer = _traced_compare()
        self._assert_tree(tracer)
        assert _run_modes(tracer) == ["record"] + ["replay"] * 4
        replayed = [
            s.attrs["architecture"]
            for s in tracer.spans
            if s.category == CATEGORY_RUN and s.attrs["mode"] == "replay"
        ]
        assert sorted(replayed) == sorted(list_architectures())

    def test_replay_run_span_reports_convergence(self):
        comparison, tracer = _traced_compare(kernel="cc", max_iterations=None)
        assert comparison.trace.converged
        runs = [s for s in tracer.spans if s.category == CATEGORY_RUN]
        assert [s.attrs["converged"] for s in runs] == [True] * 5

    @pytest.mark.parametrize(
        "parts, replication, part, error",
        [(PARTS, 1, 99, FaultError), (1, 2, 0, RecoveryError)],
        ids=["part-out-of-range", "single-node-rereplicate"],
    )
    def test_failed_recovery_leaves_no_open_span(
        self, parts, replication, part, error
    ):
        graph, ds = _graph()
        sim = get_architecture("disaggregated", SystemConfig(num_memory_nodes=parts))
        faults = FaultSchedule(
            events=(FaultEvent(1, FaultKind.MEMORY_NODE_CRASH, part=part),),
            replication_factor=replication,
        )
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(error):
                sim.run(
                    graph,
                    get_kernel("pagerank"),
                    max_iterations=MAX_ITER,
                    graph_name=ds.name,
                    faults=faults,
                )
            assert tracer.current() is None
            sim.run(
                graph,
                get_kernel("pagerank"),
                max_iterations=MAX_ITER,
                graph_name=ds.name,
            )
        runs = [s for s in tracer.spans if s.category == CATEGORY_RUN]
        assert [s.parent_id for s in runs] == [None, None]
        assert all(s.end_s is not None for s in tracer.spans)


class TestNoOpBitIdentity:
    """Tracing must not perturb the computation in any observable way."""

    def _fingerprint(self, run):
        return (
            run.ledger.breakdown(),
            dict(run.counters.as_dict()),
            run.num_iterations,
            run.converged,
        )

    @pytest.mark.parametrize("arch", sorted(list_architectures()))
    def test_traced_equals_untraced(self, arch):
        traced_run, _ = _traced_run(arch)
        graph, ds = _graph()
        sim = get_architecture(arch, SystemConfig(num_memory_nodes=PARTS))
        assert get_tracer() is NOOP_TRACER  # untraced baseline
        plain_run = sim.run(
            graph,
            get_kernel("pagerank"),
            max_iterations=MAX_ITER,
            graph_name=ds.name,
            seed=SEED,
        )
        assert self._fingerprint(traced_run) == self._fingerprint(plain_run)
        assert np.array_equal(
            traced_run.result_property(), plain_run.result_property()
        )

    def test_explicit_noop_equals_default(self):
        graph, ds = _graph()

        def once():
            sim = get_architecture(
                "disaggregated-ndp", SystemConfig(num_memory_nodes=PARTS)
            )
            return sim.run(
                graph,
                get_kernel("pagerank"),
                max_iterations=MAX_ITER,
                graph_name=ds.name,
                seed=SEED,
            )

        baseline = once()
        with use_tracer(NOOP_TRACER):
            explicit = once()
        assert self._fingerprint(baseline) == self._fingerprint(explicit)


class TestSweepSpanEquality:
    """Serial and parallel sweeps must produce the same span structure."""

    def _tasks(self):
        from repro.experiments.sweep import SweepTask

        return [
            SweepTask("wikitalk-sim", "pagerank", PARTS, TIER, SEED, 4),
            SweepTask("wikitalk-sim", "bfs", PARTS, TIER, SEED, 4),
        ]

    def _sweep_view(self, jobs):
        from repro.experiments import sweep as sweep_mod

        tracer = Tracer()
        with use_tracer(tracer):
            sweep_mod.run(tasks=self._tasks(), jobs=jobs)
        batch = tracer.to_batch()
        # The parent sweep span legitimately records how many jobs drove
        # it; everything else must be identical.
        for d in batch:
            if d["name"] == "sweep":
                d["attrs"].pop("jobs", None)
        return structural_view(batch)

    def test_serial_and_parallel_span_sets_equal(self):
        assert self._sweep_view(1) == self._sweep_view(2)

    def test_untraced_sweep_collects_no_spans(self):
        from repro.experiments.sweep import run_sweep

        outcomes = run_sweep(self._tasks(), jobs=1)
        assert all(out.spans == () for out in outcomes)


class TestTracingSession:
    def test_noop_when_nothing_requested(self):
        with tracing_session() as tracer:
            assert tracer is NOOP_TRACER
            assert not tracer.enabled

    def test_writes_all_requested_outputs(self, tmp_path):
        trace_path = tmp_path / "session.trace.json"
        jsonl_path = tmp_path / "session.jsonl"
        stream = io.StringIO()
        with tracing_session(
            trace_out=str(trace_path),
            jsonl_out=str(jsonl_path),
            progress=True,
            progress_stream=stream,
        ) as tracer:
            assert tracer.enabled
            assert get_tracer() is tracer
            with tracer.span(
                "run", category=CATEGORY_RUN, architecture="x", iterations=2
            ):
                pass
        assert get_tracer() is NOOP_TRACER
        assert validate_chrome_trace(str(trace_path)) == 1
        assert len(jsonl_path.read_text().splitlines()) == 1
        assert "[x] done — 2 iterations" in stream.getvalue()

    def test_real_run_produces_valid_trace(self, tmp_path):
        trace_path = tmp_path / "real.trace.json"
        graph, ds = _graph()
        with tracing_session(trace_out=str(trace_path)):
            sim = get_architecture(
                "disaggregated-ndp", SystemConfig(num_memory_nodes=PARTS)
            )
            sim.run(
                graph,
                get_kernel("pagerank"),
                max_iterations=3,
                graph_name=ds.name,
                seed=SEED,
            )
        count = validate_chrome_trace(str(trace_path))
        assert count >= 4  # run span + 3 iterations at minimum
