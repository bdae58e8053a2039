"""Offline analyses built on runs and traces."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".direction": (
            "DirectionProfile", "direction_profile", "pull_iteration_bytes",
        ),
    },
)
