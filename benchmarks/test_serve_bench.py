"""Serving-daemon benchmarks (``BENCH_serve.json``).

Two sections, each held to its rows in ``benchmarks/check_regression.py``:

* ``serve_throughput`` — sustained req/s and p50/p99 latency against a
  warm daemon at three concurrency tiers, plus the naive cold path
  (fresh dataset load + execution per request, no pool, no caches) as
  the baseline.  The middle tier's speedup over cold is the point of
  coalescing + the warm graph pool.
* ``serve_overload`` — a burst of distinct-digest requests against a
  deliberately tiny daemon.  Overload must produce *typed* shedding
  (429/503 with machine-readable bodies), zero transport errors, and
  zero hangs.

Every 200 response's body bytes are tracked per request digest; any
digest serving two different bodies fails the bench — bit-identity is
non-negotiable.
"""

from __future__ import annotations

import json
import time

from _loadgen import DEFAULT_MIX, http_post, run_load_sync
from conftest import write_bench

from repro import api
from repro import cache as repro_cache
from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import result_sha256

CONCURRENCY_TIERS = (2, 8, 16)
MID_TIER = 8
REQUESTS_PER_TIER = 240

OVERLOAD_REQUESTS = 40
OVERLOAD_CONCURRENCY = 16


def _cold_seconds_per_request() -> float:
    """Mean wall seconds of the naive path over the benchmark mix.

    "Naive" means what a per-request CLI invocation does: regenerate the
    dataset and execute, with the artifact cache disabled so nothing is
    amortized across requests.
    """
    saved = repro_cache.get_cache()
    repro_cache.disable()
    try:
        total = 0.0
        for kind, payload in DEFAULT_MIX:
            spec = api.RunSpec(**payload)
            start = time.perf_counter()
            if kind == "compare":
                api.compare(spec)
            else:
                api.run(spec)
            total += time.perf_counter() - start
        return total / len(DEFAULT_MIX)
    finally:
        if saved is not None:
            repro_cache.configure(saved.root, max_bytes=saved.max_bytes)


def test_serve_throughput():
    """Warm-daemon throughput at three concurrency tiers vs the cold path."""
    cold_seconds = _cold_seconds_per_request()
    cold_rps = 1.0 / cold_seconds

    tiers = {}
    with ServerThread(ServeConfig(port=0, workers=4)) as server:
        # Warm the pool and result cache: one pass over the mix.
        warmup = run_load_sync(
            "127.0.0.1", server.port, DEFAULT_MIX,
            total=len(DEFAULT_MIX), concurrency=1,
        )
        assert warmup.ok == len(DEFAULT_MIX), warmup.summary()

        for concurrency in CONCURRENCY_TIERS:
            report = run_load_sync(
                "127.0.0.1", server.port, DEFAULT_MIX,
                total=REQUESTS_PER_TIER, concurrency=concurrency,
            )
            assert report.ok == REQUESTS_PER_TIER, report.summary()
            assert report.divergent_digests == [], (
                "identical requests served different bytes: "
                f"{report.divergent_digests}"
            )
            tiers[str(concurrency)] = {
                "requests": report.total,
                "rps": round(report.rps, 2),
                "p50_ms": round(report.percentile_ms(0.50), 3),
                "p99_ms": round(report.percentile_ms(0.99), 3),
                "coalesced": report.coalesced,
                "cache_hits": report.cache_hits,
            }

        # Spot-check bit-identity against the offline facade.
        kind, payload = DEFAULT_MIX[0]
        status, _headers, body = http_post(
            server.port, f"/v1/{kind}", payload
        )
        assert status == 200
        served_sha = json.loads(body)["result_sha256"]
        offline_sha = result_sha256(
            api.run(api.RunSpec(**payload)).result_property()
        )
        assert served_sha == offline_sha

    mid_rps = tiers[str(MID_TIER)]["rps"]
    speedup = mid_rps / cold_rps
    payload = {
        "mix_size": len(DEFAULT_MIX),
        "tiers": tiers,
        "mid_concurrency": MID_TIER,
        "mid_rps": mid_rps,
        "cold_seconds_per_request": round(cold_seconds, 6),
        "cold_rps": round(cold_rps, 3),
        "mid_speedup_vs_cold": round(speedup, 2),
        "sha_identity_checked": True,
    }
    # The warm tiers are served by coalescing or the result cache, not by
    # re-execution.
    amortized = sum(t["coalesced"] + t["cache_hits"] for t in tiers.values())
    assert amortized > 0, f"nothing coalesced or cached: {tiers}"
    write_bench("BENCH_serve.json", "serve_throughput", payload)


def test_serve_overload_sheds_typed():
    """Overload produces typed shedding, never hangs or raw failures."""
    # Every request gets a distinct digest (seed varies) so neither
    # coalescing nor the result cache can absorb the burst.
    mix = tuple(
        (
            "run",
            {"dataset": "wikitalk-sim", "kernel": "pagerank", "tier": "tiny",
             "max_iterations": 4, "seed": seed},
        )
        for seed in range(OVERLOAD_REQUESTS)
    )
    config = ServeConfig(
        port=0,
        workers=1,
        max_queue_depth=2,
        coalesce=False,
        result_cache=False,
        tenant_max_inflight=None,
    )
    start = time.perf_counter()
    with ServerThread(config) as server:
        report = run_load_sync(
            "127.0.0.1", server.port, mix,
            total=OVERLOAD_REQUESTS, concurrency=OVERLOAD_CONCURRENCY,
        )
    elapsed = time.perf_counter() - start

    shed_total = report.shed + report.quota_rejected
    payload = {
        "requests": OVERLOAD_REQUESTS,
        "concurrency": OVERLOAD_CONCURRENCY,
        "ok": report.ok,
        "shed": report.shed,
        "quota_rejected": report.quota_rejected,
        "client_errors": report.client_errors,
        "server_errors": report.server_errors,
        "statuses": {str(k): v for k, v in sorted(report.statuses.items())},
        "p99_ms": round(report.percentile_ms(0.99), 3),
        "wall_seconds": round(elapsed, 3),
        "shed_demonstrated": shed_total > 0,
    }
    assert report.ok + shed_total == OVERLOAD_REQUESTS, report.summary()
    write_bench("BENCH_serve.json", "serve_overload", payload)
