"""Run traces: flat per-iteration records, file export/import, analysis.

The paper's methodology is trace-driven — the prototype records what each
deployment *would* move.  This package makes those traces first-class:
:func:`trace_run` flattens a :class:`~repro.arch.results.RunResult` into
per-iteration records, exporters write them to CSV/JSONL for external
analysis, and :func:`compare_traces` answers the Fig. 7-style questions
(who wins each iteration, cumulative gap, crossover points) for any two
recorded runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".record": ("IterationRecord", "trace_run"),
        ".export": (
            "write_trace_csv", "write_trace_jsonl", "load_trace_csv",
            "load_trace_jsonl",
        ),
        ".analyze": ("TraceComparison", "compare_traces", "summarize_trace"),
    },
)
