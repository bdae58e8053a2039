"""``repro-worker`` — pull-mode sweep worker for the sweep coordinator.

One worker = one TCP connection to a sweep coordinator
(:class:`repro.experiments.remote.RemoteScheduler`).  The loop is
deliberately dumb — authenticate, then pull:

1. ``hello`` with the shared token; a ``reject`` exits 2.
2. For each ``task`` message: materialize the graph *by content digest*
   from the local artifact cache; on a miss, fetch the ``.npz`` bytes
   over the connection and install them through
   :meth:`ArtifactCache.import_bytes` (validated, atomic) so the next
   sweep on this host starts warm.  With no local cache the payload is
   decoded in memory.
3. Execute the task with the *same* ``_execute_task`` function the
   in-process sweep uses — outcomes (and their ``ledger_sha256``) can
   only differ from a local run if the inputs differ.
4. Report ``result`` and pull again.  A background thread sends ``ping``
   keepalives at the cadence the coordinator's ``welcome`` dictated.

A ``chaos`` field on a task makes the worker apply the fault to *itself*
(:func:`repro.chaos.apply_in_worker`) before touching the graph — this
is how the chaos harness exercises the coordinator's crash/hang
supervision deterministically across real process boundaries.

:class:`ForkedFleet` runs the same loop in workers forked from the sweep
process itself: that is how ``run_sweep(jobs=N)`` executes in parallel.

Exit codes: 0 on coordinator-initiated shutdown, 2 on configuration or
handshake errors, 3 on a lost connection.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import socket
import sys
import threading
from typing import Any, Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import chaos as chaos_mod
from repro.cache import ArtifactCache, get_cache
from repro.cache.artifacts import graph_from_arrays, load_dataset_cached
from repro.errors import WorkerAuthError
from repro.experiments.journal import outcome_to_json, task_from_json
from repro.experiments.remote import (
    PROTOCOL_VERSION,
    TOKEN_ENV,
    default_worker_name,
    encode_msg,
)
from repro.obs.span import set_tracer

_META_FIELD = "__meta__"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Connect to a sweep coordinator and execute tasks.",
    )
    parser.add_argument(
        "coordinator",
        metavar="HOST:PORT",
        help="coordinator endpoint (see repro-experiments run sweep "
        "--scheduler remote)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help=f"shared worker token (default: ${TOKEN_ENV})",
    )
    parser.add_argument(
        "--token-env",
        default=TOKEN_ENV,
        metavar="VAR",
        help="environment variable to read the token from "
        f"(default: {TOKEN_ENV})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="local artifact cache root (default: $REPRO_CACHE_DIR); "
        "fetched artifacts are installed here",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="worker name reported to the coordinator "
        "(default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="TCP connect timeout in seconds (default: 10)",
    )
    return parser


def _parse_endpoint(value: str) -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


class _Connection:
    """Blocking socket transport: line reads, locked writes, keepalives."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self._wlock = threading.Lock()

    def send(self, msg: Dict[str, Any]) -> None:
        data = encode_msg(msg)
        with self._wlock:
            self.sock.sendall(data)

    def recv(self) -> Dict[str, Any]:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("connection to coordinator lost")
        msg = json.loads(line)
        if not isinstance(msg, dict):
            raise ConnectionError("malformed coordinator message")
        return msg

    def read_exact(self, nbytes: int) -> bytes:
        data = self.rfile.read(nbytes)
        if data is None or len(data) != nbytes:
            raise ConnectionError("connection lost during artifact transfer")
        return data

    def start_keepalive(self, interval_s: float) -> None:
        def _beat() -> None:
            # Dies with the connection; a SIGSTOP'd worker stops beating,
            # which is exactly what the coordinator's watchdog watches.
            while True:
                import time

                time.sleep(max(interval_s, 0.05))
                try:
                    self.send({"t": "ping"})
                except OSError:
                    return

        threading.Thread(target=_beat, daemon=True).start()


class _GraphStore:
    """Per-worker graph materialization with the cache as data plane."""

    def __init__(
        self,
        conn: _Connection,
        cache: Optional[ArtifactCache],
        graphs: Optional[Mapping[Tuple[str, str, int], Any]] = None,
    ) -> None:
        self.conn = conn
        self.cache = cache
        self._graphs: Dict[Tuple[str, str, int], Any] = dict(graphs or {})

    def materialize(self, task: Any, artifact: Optional[Dict[str, str]]) -> Any:
        key3 = task.graph_key
        if key3 in self._graphs:
            return self._graphs[key3]
        graph = None
        if artifact is not None:
            graph = self._from_digest(
                str(artifact["kind"]), str(artifact["key"])
            )
        if graph is None:
            # No digest (uncacheable seed / cacheless coordinator) or the
            # fetch failed: regenerate — same pure function, same bits.
            graph, _spec = load_dataset_cached(
                task.dataset, tier=task.tier, seed=task.seed, cache=self.cache
            )
        self._graphs[key3] = graph
        return graph

    def _from_digest(self, kind: str, key: str) -> Optional[Any]:
        if self.cache is not None:
            entry = self.cache.get(kind, key)
            if entry is not None:
                return graph_from_arrays(entry[0])
        data = self._fetch(kind, key)
        if data is None:
            return None
        if self.cache is not None and self.cache.import_bytes(kind, key, data):
            entry = self.cache.get(kind, key)
            if entry is not None:
                return graph_from_arrays(entry[0])
            return None  # pragma: no cover - raced eviction
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as payload:
                arrays = {
                    name: payload[name]
                    for name in payload.files
                    if name != _META_FIELD
                }
            return graph_from_arrays(arrays)
        except Exception:
            return None  # corrupt transfer: fall back to regeneration

    def _fetch(self, kind: str, key: str) -> Optional[bytes]:
        """Pull one artifact by digest over the control connection."""
        self.conn.send({"t": "fetch", "kind": kind, "key": key})
        while True:
            msg = self.conn.recv()
            t = msg.get("t")
            if t == "shutdown":
                raise SystemExit(0)
            if (
                t == "artifact"
                and msg.get("kind") == kind
                and msg.get("key") == key
            ):
                if not msg.get("found"):
                    return None
                return self.conn.read_exact(int(msg.get("nbytes", 0)))
            # anything else is a stray; keep waiting for our payload


def _handshake(
    sock: socket.socket, *, token: str, name: str
) -> Tuple[_Connection, Dict[str, Any]]:
    """Authenticate on a connected socket and start the keepalives.

    Returns the connection and the coordinator's ``welcome``.
    Raises :class:`WorkerAuthError` when the coordinator rejects the
    ``hello`` or answers with anything but ``welcome``.
    """
    conn = _Connection(sock)
    conn.send(
        {
            "t": "hello",
            "proto": PROTOCOL_VERSION,
            "token": token,
            "name": name,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }
    )
    welcome = conn.recv()
    if welcome.get("t") == "reject":
        raise WorkerAuthError(
            f"coordinator rejected worker: {welcome.get('error', '?')}"
        )
    if welcome.get("t") != "welcome":
        raise WorkerAuthError("unexpected handshake reply")
    conn.start_keepalive(float(welcome.get("keepalive_s", 1.0)) or 1.0)
    return conn, welcome


def _serve(
    conn: _Connection,
    cache: Optional[ArtifactCache],
    graphs: Optional[Mapping[Tuple[str, str, int], Any]] = None,
) -> str:
    """Pull and execute tasks until the coordinator's ``shutdown``.

    Returns the shutdown reason; a lost connection raises.
    """
    from repro.experiments.sweep import _execute_task

    store = _GraphStore(conn, cache, graphs)
    while True:
        msg = conn.recv()
        t = msg.get("t")
        if t == "shutdown":
            return str(msg.get("reason", ""))
        if t != "task":
            continue
        idx = int(msg.get("idx", -1))
        task = task_from_json(msg["task"])
        if msg.get("chaos"):
            # Injected process-level fault: die (or freeze) exactly like
            # a real remote worker would — no report, no cleanup.
            chaos_mod.apply_in_worker(str(msg["chaos"]))
        try:
            graph = store.materialize(task, msg.get("artifact"))
            outcome = _execute_task(
                task,
                graph,
                str(msg.get("graph_name", task.dataset)),
                collect_spans=bool(msg.get("collect_spans", False)),
            )
        except SystemExit:
            raise
        except Exception as exc:
            conn.send(
                {
                    "t": "result",
                    "idx": idx,
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        conn.send(
            {
                "t": "result",
                "idx": idx,
                "status": "ok",
                "outcome": outcome_to_json(outcome),
                "spans": [dict(span) for span in outcome.spans],
            }
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    token = args.token or os.environ.get(args.token_env, "")
    if not token:
        print(
            f"no worker token: pass --token or set ${args.token_env}",
            file=sys.stderr,
        )
        return 2
    try:
        host, port = _parse_endpoint(args.coordinator)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cache: Optional[ArtifactCache]
    if args.cache_dir is not None:
        cache = ArtifactCache(args.cache_dir)
    else:
        cache = get_cache()
    name = args.name or default_worker_name()
    try:
        sock = socket.create_connection(
            (host, port), timeout=args.connect_timeout
        )
    except OSError as exc:
        print(f"cannot reach coordinator {host}:{port}: {exc}", file=sys.stderr)
        return 2
    sock.settimeout(None)
    try:
        conn, welcome = _handshake(sock, token=token, name=name)
        print(
            f"worker {name} connected to {host}:{port} "
            f"(sweep {str(welcome.get('sweep', ''))[:12]})"
        )
        print(f"coordinator shutdown: {_serve(conn, cache)}")
        return 0
    except WorkerAuthError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"connection to coordinator lost: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ForkedFleet:
    """``size`` sweep workers forked from the sweep process itself.

    :class:`~repro.experiments.remote.RemoteScheduler` drives a fleet from
    its event-loop thread only: :meth:`start` once the coordinator is
    bound, :meth:`lost` whenever a forked worker's connection goes,
    :meth:`stop` before the sweep returns or raises.  In a CLI or library
    sweep that thread is the only one alive when it forks.  A served sweep
    forks from a daemon executor thread while the daemon's event-loop
    thread and its other executor threads run; the child inherits only
    the forking thread.  A child runs the ``repro-worker`` serve loop with
    the graphs the coordinator loaded already in its store, so it neither
    imports ``repro`` afresh nor reads the cache, and it prints nothing.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        #: children not yet reaped, killed by :meth:`lost`/:meth:`stop`
        self.pids: Set[int] = set()
        self._target: Optional[Tuple[str, int, str, Mapping[Any, Any]]] = None

    def start(
        self, host: str, port: int, token: str, graphs: Mapping[Any, Any]
    ) -> None:
        self._target = (host, port, token, graphs)
        for _ in range(self.size):
            self._fork()

    def lost(self, pid: int, *, respawn: bool) -> None:
        """Kill and reap a worker whose connection went; replace it when
        ``respawn`` (tasks remain)."""
        if pid not in self.pids:
            return
        self._kill(pid)
        if respawn:
            self._fork()

    def stop(self) -> None:
        for pid in list(self.pids):
            self._kill(pid)

    def _kill(self, pid: int) -> None:
        self.pids.discard(pid)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # pragma: no cover
            pass

    def _fork(self) -> None:
        assert self._target is not None, "start() the fleet first"
        # Unflushed parent output would otherwise be written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # The child must never unwind into the parent's event-loop
            # frames it inherited: whatever happens, it exits here.
            code = 3
            try:
                _forked_worker(*self._target)
                code = 0
            finally:
                os._exit(code)
        self.pids.add(pid)


def _forked_worker(
    host: str, port: int, token: str, graphs: Mapping[Any, Any]
) -> None:
    """A forked worker's life: serve until the coordinator's shutdown."""
    # Forked inside the coordinator's running event loop: drop its
    # handlers and self-pipe, or a signal sent to this child would be
    # written into the parent's wakeup fd and read there as its own.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    # Spans recorded outside a task would land in the parent's tracer
    # copy (and its exporters); tasks carry their own tracer.
    set_tracer(None)
    sock = socket.create_connection((host, port))
    conn, _welcome = _handshake(sock, token=token, name=default_worker_name())
    _serve(conn, None, graphs)


if __name__ == "__main__":
    raise SystemExit(main())
