"""Shared utilities: RNG seeding, unit formatting, validation, tables."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".backoff": ("BackoffPolicy", "exponential_delay", "retry_after_hint"),
        ".rng": ("ensure_rng", "spawn_rngs"),
        ".units": (
            "format_bytes", "format_count", "format_rate", "parse_bytes",
            "KiB", "MiB", "GiB", "TiB",
        ),
        ".validation": (
            "check_dtype_integer", "check_in_range", "check_nonnegative",
            "check_positive", "check_type",
        ),
        ".tables": ("TextTable",),
    },
)
