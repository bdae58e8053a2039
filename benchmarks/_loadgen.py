"""HTTP load client for the serving benchmarks (``BENCH_serve.json``).

A pool of keep-alive TCP clients drives a request mix against a running
daemon and reports sustained throughput plus latency percentiles;
:func:`http_post` sends one blocking request.

The client is deliberately dependency-free (stdlib asyncio and
``http.client``) and deterministic: requests are issued round-robin over
the mix, so two runs against the same daemon state see the same workload
in the same order per client::

    report = run_load_sync("127.0.0.1", 8577, mix, total=200, concurrency=8)
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: (kind, payload) templates cycled round-robin by the generator.
RequestMix = Sequence[Tuple[str, Mapping[str, Any]]]

#: Default mix: tiny deterministic workloads across two datasets, two
#: kernels, run + compare — enough variety to exercise the pool, enough
#: repetition to exercise coalescing and the result cache.
DEFAULT_MIX: RequestMix = (
    ("run", {"dataset": "wikitalk-sim", "kernel": "pagerank", "tier": "tiny",
             "max_iterations": 4}),
    ("run", {"dataset": "wikitalk-sim", "kernel": "cc", "tier": "tiny"}),
    ("run", {"dataset": "livejournal-sim", "kernel": "pagerank",
             "tier": "tiny", "max_iterations": 4}),
    ("compare", {"dataset": "wikitalk-sim", "kernel": "degree",
                 "tier": "tiny"}),
)


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    total: int
    concurrency: int
    seconds: float
    ok: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    shed: int = 0
    quota_rejected: int = 0
    client_errors: int = 0
    server_errors: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    #: distinct response bodies seen per digest — identity verification
    bodies_by_digest: Dict[str, set] = field(default_factory=dict)

    @property
    def rps(self) -> float:
        return self.total / self.seconds if self.seconds > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    @property
    def divergent_digests(self) -> List[str]:
        """Digests that ever produced more than one distinct body —
        must be empty; coalescing/caching guarantee identical bytes."""
        return sorted(
            digest
            for digest, bodies in self.bodies_by_digest.items()
            if len(bodies) > 1
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "concurrency": self.concurrency,
            "seconds": round(self.seconds, 6),
            "rps": round(self.rps, 3),
            "p50_ms": round(self.percentile_ms(0.50), 3),
            "p99_ms": round(self.percentile_ms(0.99), 3),
            "ok": self.ok,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "divergent_digests": self.divergent_digests,
        }


async def _http_post(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    path: str,
    body: bytes,
) -> Tuple[int, Dict[str, str], bytes]:
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.decode("latin-1").split(" ", 2)
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("truncated response headers")
        line = line.strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


async def run_load(
    host: str,
    port: int,
    mix: RequestMix = DEFAULT_MIX,
    *,
    total: int = 100,
    concurrency: int = 4,
) -> LoadReport:
    """Issue ``total`` requests over ``concurrency`` keep-alive clients."""
    report = LoadReport(total=total, concurrency=concurrency, seconds=0.0)
    counter = {"next": 0}
    lock = asyncio.Lock()

    async def client() -> None:
        reader = writer = None
        try:
            while True:
                async with lock:
                    index = counter["next"]
                    if index >= total:
                        return
                    counter["next"] = index + 1
                kind, payload = mix[index % len(mix)]
                body = json.dumps(payload).encode()
                started = time.monotonic()
                try:
                    if reader is None:
                        reader, writer = await asyncio.open_connection(
                            host, port
                        )
                    status, headers, response = await _http_post(
                        reader, writer, host, f"/v1/{kind}", body
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    report.client_errors += 1
                    continue
                elapsed_ms = (time.monotonic() - started) * 1e3
                report.latencies_ms.append(elapsed_ms)
                report.statuses[status] = report.statuses.get(status, 0) + 1
                digest = headers.get("x-repro-digest")
                if status == 200:
                    report.ok += 1
                    if headers.get("x-repro-coalesced") == "1":
                        report.coalesced += 1
                    if headers.get("x-repro-cache") == "hit":
                        report.cache_hits += 1
                    if digest:
                        report.bodies_by_digest.setdefault(
                            digest, set()
                        ).add(response)
                elif status == 429:
                    report.quota_rejected += 1
                elif status == 503:
                    report.shed += 1
                else:
                    report.server_errors += 1
                if headers.get("connection", "").lower() == "close":
                    writer.close()
                    reader = writer = None
        finally:
            if writer is not None:
                writer.close()

    started = time.monotonic()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    report.seconds = time.monotonic() - started
    return report


def run_load_sync(
    host: str,
    port: int,
    mix: RequestMix = DEFAULT_MIX,
    *,
    total: int = 100,
    concurrency: int = 4,
) -> LoadReport:
    """Blocking wrapper around :func:`run_load` (runs its own loop)."""
    return asyncio.run(
        run_load(host, port, mix, total=total, concurrency=concurrency)
    )


def http_post(
    port: int,
    path: str,
    payload: Mapping[str, Any],
    *,
    timeout: float = 300.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One blocking POST to the daemon on localhost."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, response.read()
    finally:
        conn.close()
