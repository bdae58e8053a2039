"""Analytics-as-a-service: the coalescing, warm-pool serving daemon.

``repro.serve`` turns the offline facade into a long-lived localhost
service.  The pieces, each its own module:

* :mod:`repro.serve.config`    — :class:`ServeConfig`, every tuning knob;
* :mod:`repro.serve.protocol`  — request parsing, canonical response
  bytes, the request digest that keys everything;
* :mod:`repro.serve.pool`      — ref-counted shared graph pool with LRU
  eviction under a byte budget;
* :mod:`repro.serve.results`   — two-layer content-addressed result cache;
* :mod:`repro.serve.coalesce`  — identical in-flight requests share one
  execution;
* :mod:`repro.serve.admission` — per-tenant quotas, priority queue, typed
  load shedding;
* :mod:`repro.serve.executor`  — thread-pool execution through the
  facade's single code path (bit-identical to the CLIs);
* :mod:`repro.serve.server`    — the asyncio HTTP front door tying it
  together, plus :class:`ServerThread` for in-process harnesses.

See ``docs/serving.md`` for the protocol and operational story.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".admission": ("AdmissionController", "TokenBucket"),
        ".coalesce": ("Coalescer",),
        ".config": ("DEFAULT_PORT", "ServeConfig"),
        ".executor": ("ServeExecutor",),
        ".pool": ("GraphLease", "GraphPool", "graph_nbytes", "pool_key"),
        ".protocol": (
            "REQUEST_KINDS", "ServeRequest", "canonical_bytes",
            "encode_compare", "encode_run", "encode_sweep", "error_payload",
            "parse_request",
        ),
        "repro.arch.results": ("result_sha256",),
        ".results": ("ResultCache",),
        ".server": ("AnalyticsServer", "RequestTimeout", "ServerThread"),
    },
)
