"""Offline analyses built on runs and traces, plus executable variants."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".direction": (
            "DirectionProfile", "direction_profile", "pull_iteration_bytes",
        ),
        ".dobfs": (
            "DOBFSIteration", "DOBFSResult", "run_direction_optimized_bfs",
        ),
    },
)
