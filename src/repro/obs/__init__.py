"""Structured observability: spans, metrics, exporters.

The subsystem has three parts:

* :mod:`repro.obs.span` — hierarchical span tracer (run → iteration →
  phase) with a zero-cost disabled mode (:data:`NOOP_TRACER`).
* :mod:`repro.obs.metrics` — central registry of *declared* metric
  names (:data:`METRICS`, constants on :class:`M`) and the
  :class:`CounterSet` that rejects undeclared names on write.
* :mod:`repro.obs.exporters` — JSONL event stream, Chrome
  ``chrome://tracing`` format, and the live ``--progress`` reporter.

:func:`tracing_session` is the one-call wiring the CLIs use: it installs
a process-global tracer only when some output was requested and exports
everything on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import IO, Iterator, Optional

from repro.obs.exporters import (
    DecisionTraceExporter,
    JsonlStreamExporter,
    ProgressReporter,
    chrome_trace_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    METRICS,
    CounterSet,
    M,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.schema import CHROME_TRACE_SCHEMA, validate_chrome_trace
from repro.obs.span import (
    NOOP_TRACER,
    NoOpTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    structural_view,
    use_tracer,
)

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "CounterSet",
    "DecisionTraceExporter",
    "JsonlStreamExporter",
    "M",
    "METRICS",
    "MetricSpec",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoOpTracer",
    "ProgressReporter",
    "Span",
    "Tracer",
    "chrome_trace_dict",
    "get_tracer",
    "set_tracer",
    "structural_view",
    "tracing_session",
    "use_tracer",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]


@contextmanager
def tracing_session(
    *,
    trace_out: Optional[str] = None,
    jsonl_out: Optional[str] = None,
    decision_out: Optional[str] = None,
    progress: bool = False,
    progress_stream: Optional[IO[str]] = None,
) -> Iterator[object]:
    """Scoped tracing with export-on-exit.

    When no output is requested the active tracer is left untouched and
    :data:`NOOP_TRACER` (or whatever is already active) is yielded — the
    zero-overhead path.  Otherwise a fresh :class:`Tracer` becomes the
    process-global active tracer for the duration of the block; on exit
    the Chrome trace / JSONL files are written and the previous tracer
    is restored.  ``decision_out`` streams per-iteration offload decision
    records (``--decision-trace``) as JSONL.
    """
    if not (trace_out or jsonl_out or decision_out or progress):
        yield get_tracer()
        return
    tracer = Tracer()
    if progress:
        tracer.add_listener(ProgressReporter(progress_stream))
    stream = JsonlStreamExporter(jsonl_out) if jsonl_out else None
    if stream is not None:
        tracer.add_listener(stream)
    decisions = DecisionTraceExporter(decision_out) if decision_out else None
    if decisions is not None:
        tracer.add_listener(decisions)
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        if stream is not None:
            stream.close()
        if decisions is not None:
            decisions.close()
        if trace_out:
            write_chrome_trace(tracer.spans, trace_out)
