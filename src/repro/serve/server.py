"""The analytics serving daemon: asyncio JSON-over-HTTP front door.

One :class:`AnalyticsServer` owns the whole serving stack:

* a minimal HTTP/1.1 listener (stdlib asyncio only — no web framework);
* the :class:`~repro.serve.coalesce.Coalescer` attaching identical
  concurrent requests to one execution;
* the :class:`~repro.serve.results.ResultCache` answering repeats;
* the :class:`~repro.serve.admission.AdmissionController` shedding load
  with typed errors instead of hanging;
* the :class:`~repro.serve.executor.ServeExecutor` and shared
  :class:`~repro.serve.pool.GraphPool` doing the actual work.

Request flow (the fast paths first)::

    parse → draining? → result cache → coalesce → admit → queue →
    dispatcher → executor thread → cache put → fan out bytes

Everything except the executor runs on the event-loop thread, so the
coalescer and admission controller need no locks; executor threads hand
results back via ``asyncio.wrap_future``.

Error contract: every failure is a typed JSON error with a meaningful
status — 400 (malformed), 408 (request timeout), 429 (tenant quota,
``Retry-After``), 503 (overloaded or shutting down, ``Retry-After``) —
and the daemon never leaves a client hanging.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache.store import ArtifactCache
from repro.errors import (
    ConfigError,
    Overloaded,
    QuotaExceeded,
    ReproError,
    ServeError,
    ServerClosed,
)
from repro.obs.span import CATEGORY_EVENT, get_tracer
from repro.serve.admission import AdmissionController, Ticket
from repro.serve.coalesce import Coalescer
from repro.serve.config import ServeConfig
from repro.serve.executor import ServeExecutor
from repro.serve.pool import GraphPool
from repro.serve.protocol import (
    REQUEST_KINDS,
    ServeRequest,
    canonical_bytes,
    error_payload,
    parse_request,
)
from repro.serve.results import ResultCache

_SERVER_NAME = "repro-serve"
_JSON = "application/json"


class RequestTimeout(ServeError):
    """The per-request execution budget elapsed before completion."""


@dataclass(eq=False)
class _Job:
    """One admitted request waiting for (or occupying) a worker."""

    request: ServeRequest
    digest: str
    coalesced: bool
    future: "asyncio.Future[bytes]"
    ticket: Optional[Ticket] = None
    started_at: float = field(default_factory=time.monotonic)


class AnalyticsServer:
    """Coalescing, warm-pool analytics daemon on a local TCP port."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        cache: Optional[ArtifactCache] = None,
        pre_execute: Optional[Callable[[ServeRequest], None]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.pool = GraphPool(max_bytes=self.config.pool_max_bytes)
        self.results: Optional[ResultCache] = (
            ResultCache(
                memory_entries=self.config.result_cache_entries,
                artifacts=cache,
            )
            if self.config.result_cache
            else None
        )
        self.coalescer = Coalescer()
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            tenant_max_inflight=self.config.tenant_max_inflight,
        )
        self.executor = ServeExecutor(
            workers=self.config.workers,
            pool=self.pool,
            sweep_jobs_cap=self.config.sweep_jobs_cap,
            pre_execute=pre_execute,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatchers: list = []
        self._work = None  # asyncio.Event, created on the serving loop
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._inflight_jobs: set = set()
        self._client_tasks: set = set()
        self._started_at = 0.0
        self._requests_seen = 0
        self._shutdown_requested: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "AnalyticsServer":
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()
        self._dispatchers = [
            self._loop.create_task(self._dispatcher())
            for _ in range(self.config.workers)
        ]
        get_tracer().event(
            "serve.start",
            category=CATEGORY_EVENT,
            host=self.config.host,
            port=self.port,
            workers=self.config.workers,
        )
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_for_shutdown_request(self) -> None:
        """Block until ``POST /v1/shutdown`` arrives (daemon main loop)."""
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: reject new work, drain in-flight, release graphs.

        Mirrors the sweep runner's signal discipline — first interrupt
        drains, nothing ever hangs past ``drain_timeout_s``, and no pool
        or sweep-worker residue survives the daemon.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while (self.admission.queued or self._inflight) and (
                time.monotonic() < deadline
            ):
                await asyncio.sleep(0.02)
        # Shed whatever is still queued (drain=False, or drain timed out).
        closed = ServerClosed("server shutting down; request abandoned")
        while True:
            ticket = self.admission.pop()
            if ticket is None:
                break
            job = ticket.job
            self.admission.done(ticket)
            if job is not None:
                self._fail_job(job, closed)
        self._work.set()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        # Executions the drain window didn't cover: fail their clients
        # explicitly rather than leaving them to hang on a dead future.
        for job in list(self._inflight_jobs):
            self._fail_job(job, closed)
        self._inflight_jobs.clear()
        # Idle keep-alive connections (and any handler still writing) are
        # torn down explicitly so no task outlives the server.
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        self.coalescer.abandon_all(closed)
        self.executor.shutdown(wait=True)
        self.pool.clear()
        self._closed = True
        get_tracer().event(
            "serve.stop",
            category=CATEGORY_EVENT,
            requests=self._requests_seen,
            executions=self.executor.executions,
        )

    # ------------------------------------------------------------------ #
    # HTTP layer
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._client_tasks.add(task)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, b'{"ok":false,"error":'
                        b'{"type":"BadRequest","message":"malformed request line"}}\n',
                        keep_alive=False,
                    )
                    break
                headers = await self._read_headers(reader)
                if headers is None:
                    break
                keep_alive = (
                    version.upper() != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                length = int(headers.get("content-length", "0") or "0")
                if length > self.config.max_body_bytes:
                    await self._respond(
                        writer,
                        413,
                        canonical_bytes(
                            error_payload(
                                ConfigError(
                                    f"request body of {length} bytes exceeds "
                                    f"limit {self.config.max_body_bytes}"
                                )
                            )
                        ),
                        keep_alive=False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                status, extra_headers, payload = await self._route(
                    method.upper(), path, body
                )
                await self._respond(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            self._client_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_headers(
        reader: asyncio.StreamReader,
    ) -> Optional[Dict[str, str]]:
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return None
            line = line.strip()
            if not line:
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            408: "Request Timeout",
            413: "Payload Too Large",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {_JSON}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        if path == "/v1/healthz":
            if method != "GET":
                return self._method_not_allowed()
            status = "draining" if self._draining else "serving"
            return 200, {}, canonical_bytes({"ok": True, "status": status})
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed()
            return (
                200,
                {},
                (json.dumps(self.stats(), sort_keys=True) + "\n").encode(),
            )
        if path == "/v1/shutdown":
            if method != "POST":
                return self._method_not_allowed()
            if not self.config.allow_remote_shutdown:
                return (
                    403,
                    {},
                    canonical_bytes(
                        error_payload(
                            ConfigError("remote shutdown is disabled")
                        )
                    ),
                )
            self._shutdown_requested.set()
            return 200, {}, canonical_bytes({"ok": True, "status": "stopping"})
        kind = path[len("/v1/"):] if path.startswith("/v1/") else None
        if kind in REQUEST_KINDS:
            if method != "POST":
                return self._method_not_allowed()
            return await self._handle_analytics(kind, body)
        return (
            404,
            {},
            canonical_bytes(
                error_payload(ConfigError(f"unknown endpoint {path!r}"))
            ),
        )

    @staticmethod
    def _method_not_allowed() -> Tuple[int, Dict[str, str], bytes]:
        return (
            405,
            {},
            canonical_bytes(
                error_payload(ConfigError("method not allowed for this path"))
            ),
        )

    # ------------------------------------------------------------------ #
    # The analytics request path
    # ------------------------------------------------------------------ #

    async def _handle_analytics(
        self, kind: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        self._requests_seen += 1
        headers: Dict[str, str] = {}
        try:
            try:
                decoded = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"request body is not valid JSON: {exc}")
            request = parse_request(kind, decoded)
            digest = request.digest()
            headers["X-Repro-Digest"] = digest
            if self._draining:
                raise ServerClosed(
                    "server is draining; retry against a fresh instance",
                )
            payload = await self._serve_digest(request, digest, headers)
            return 200, headers, payload
        except Exception as exc:  # typed below; never leaves a client hanging
            status = self._status_for(exc)
            retry = getattr(exc, "retry_after_s", None)
            if retry is not None:
                headers["Retry-After"] = f"{float(retry):g}"
            if not isinstance(exc, ReproError):
                get_tracer().event(
                    "serve.error",
                    category=CATEGORY_EVENT,
                    kind=kind,
                    error=type(exc).__name__,
                )
            return status, headers, canonical_bytes(error_payload(exc))

    @staticmethod
    def _status_for(exc: Exception) -> int:
        if isinstance(exc, QuotaExceeded):
            return 429
        if isinstance(exc, (Overloaded, ServerClosed)):
            return 503
        if isinstance(exc, RequestTimeout):
            return 408
        if isinstance(exc, ConfigError):
            return 400
        if isinstance(exc, ReproError):
            return 400
        return 500

    async def _serve_digest(
        self, request: ServeRequest, digest: str, headers: Dict[str, str]
    ) -> bytes:
        # 1. Result cache: repeats are answered without executing.
        if self.results is not None:
            cached = await self._loop.run_in_executor(
                None, self.results.get, digest
            )
            if cached is not None:
                headers["X-Repro-Cache"] = "hit"
                return cached
        # 2. Coalescing: attach to an identical in-flight execution.
        if self.config.coalesce:
            is_leader, future = self.coalescer.lead_or_attach(
                digest, self._loop
            )
            if not is_leader:
                headers["X-Repro-Coalesced"] = "1"
                return await asyncio.shield(future)
        else:
            is_leader, future = True, self._loop.create_future()
        # 3. Leader: pass admission, queue for a worker.
        job = _Job(
            request=request,
            digest=digest,
            coalesced=self.config.coalesce,
            future=future,
        )
        try:
            ticket = self.admission.admit(request.tenant, request.priority)
        except (QuotaExceeded, Overloaded):
            # The digest never reaches a worker; attached requests must
            # fail with the leader rather than hang.
            if self.config.coalesce:
                self.coalescer.fail(
                    digest,
                    Overloaded(
                        "coalesced leader was shed; retry",
                        retry_after_s=1.0,
                    ),
                )
            raise
        job.ticket = ticket
        ticket.job = job
        self._work.set()
        return await asyncio.shield(future)

    # ------------------------------------------------------------------ #
    # Dispatchers: queue → executor threads → fan-out
    # ------------------------------------------------------------------ #

    async def _dispatcher(self) -> None:
        while True:
            await self._work.wait()
            ticket = self.admission.pop()
            if ticket is None:
                self._work.clear()
                continue
            job: _Job = ticket.job
            self._inflight += 1
            self._inflight_jobs.add(job)
            exec_started = time.monotonic()
            try:
                payload_future = asyncio.wrap_future(
                    self.executor.submit(job.request), loop=self._loop
                )
                if self.config.request_timeout_s is not None:
                    try:
                        payload = await asyncio.wait_for(
                            payload_future, self.config.request_timeout_s
                        )
                    except asyncio.TimeoutError:
                        raise RequestTimeout(
                            "execution exceeded the "
                            f"{self.config.request_timeout_s:g}s budget"
                        )
                else:
                    payload = await payload_future
            except Exception as exc:
                self._fail_job(job, exc)
            else:
                if self.results is not None:
                    await self._loop.run_in_executor(
                        None,
                        partial(
                            self.results.put,
                            job.digest,
                            payload,
                            gen_seconds=time.monotonic() - exec_started,
                        ),
                    )
                self._resolve_job(job, payload)
            finally:
                self.admission.done(ticket)
                self._inflight -= 1
                self._inflight_jobs.discard(job)

    def _resolve_job(self, job: _Job, payload: bytes) -> None:
        if job.coalesced:
            self.coalescer.resolve(job.digest, payload)
        elif not job.future.done():
            job.future.set_result(payload)

    def _fail_job(self, job: _Job, exc: Exception) -> None:
        if job.coalesced:
            self.coalescer.fail(job.digest, exc)
        elif not job.future.done():
            job.future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        return {
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "draining": self._draining,
            "requests": self._requests_seen,
            "inflight": self._inflight,
            "executor": self.executor.stats(),
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
            "pool": self.pool.stats(),
            "results": self.results.stats() if self.results else None,
        }


class ServerThread:
    """Run an :class:`AnalyticsServer` on a background event loop.

    The in-process harness tests and benchmarks use: start, talk to
    ``thread.port`` over TCP, ``stop()``.  The production entry point is
    the ``repro-serve`` CLI, not this."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        cache: Optional[ArtifactCache] = None,
        pre_execute: Optional[Callable[[ServeRequest], None]] = None,
    ) -> None:
        self._config = config or ServeConfig(port=0)
        self._cache = cache
        self._pre_execute = pre_execute
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[AnalyticsServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serving daemon did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serving daemon failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self.loop = loop
        try:
            self.server = AnalyticsServer(
                self._config,
                cache=self._cache,
                pre_execute=self._pre_execute,
            )
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        if self.loop is None or self.server is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self.loop
        )
        future.result(timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
