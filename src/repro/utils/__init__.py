"""Shared utilities: RNG seeding, unit formatting, backoff, tables."""

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
        ".tables": ("TextTable",),
    },
)
