"""Measurement plumbing: movement ledger, utilization, reports."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".movement": ("MovementLedger",),
        ".utilization": (
            "UtilizationReport", "utilization_report", "classify_utilization",
        ),
        ".report": ("movement_table", "to_json"),
    },
)
