"""The end-to-end workloads.

Each workload function takes the run context built by ``bench.py``
(``seed``, ``seconds``, ``traced``, the sandbox ``box`` and the
``reference`` kernel, which it times while the program idles around the
timed ops) and returns an
:class:`Outcome`: set-up time, the outputs set-up observed, one
:class:`Op` per operation of the timed region, the peak memory of the
timed region, and -- for traced runs -- the layer report.  ``--seed``
chooses only dataset seeds, op order and arrival times; the count of each
op template is fixed by the run length.

Every workload times one kind of op, so each end-to-end metric of a
workload describes one population: the local pool and the remote
scheduler are separate sweep workloads.

Correctness: every op reports ``(key, value)`` output digests.  ``bench.py``
checks them against the goldens (seed 0) or against what set-up observed,
and each workload adds a cross-path check after the timed region (an
in-process ``repro.api`` call or a serial sweep), whose disagreements land
in ``Outcome.bad_keys``.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import layers

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: how many times set-up is repeated per run (``setup_s`` is the median)
SETUP_REPS = 3
#: ceiling on any one child process or request, far above normal
CHILD_TIMEOUT_S = 120.0
#: reference-kernel repetitions timed before the timed region; more
#: follow each pass of a closed loop, and fill the open loop's gaps
REFERENCE_REPS = 3
#: the open loop times the kernel (about 50 ms) only in a gap this long
#: before the next request is due, so the two never overlap
REFERENCE_GAP_S = 0.15


class SetupError(RuntimeError):
    """Set-up could not produce a state to measure."""


@dataclass
class Op:
    """One timed operation: its latency and the output digests it made."""

    latency_s: float
    results: List[Tuple[str, str]] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Outcome:
    setup_s: float
    #: percentiles ``op_typical_ms`` and ``op_tail_ms`` report.  Typical
    #: is the median unless the median falls on the knee between two
    #: latency populations; tail is the highest of p90, p85, p75 and the
    #: median that leaves about ten of a run's ops beyond it.
    quantiles: Tuple[float, float]
    #: output key -> digest, as set-up observed it (the goldens' shape)
    outputs: Dict[str, str]
    ops: List[Op]
    #: peak resident set at the end of the timed region, before the checks
    rss_mb: float
    #: set-up operations, checked for correctness but not timed
    setup_ops: List[Op] = field(default_factory=list)
    #: digests of outputs set-up never produced (fresh cold requests)
    references: Dict[str, str] = field(default_factory=dict)
    #: output keys an independent execution path disagreed with
    bad_keys: Set[str] = field(default_factory=set)
    layers: Optional[Dict[str, Any]] = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def _closed_loop(
    run, rng: random.Random, labels: Sequence[str], op: Callable[[str], Op]
) -> Tuple[List[Op], float]:
    """Passes over every label, in seeded order, until ``run.seconds`` pass.

    A pass started before the deadline completes, so every label runs
    equally often.  The reference kernel is timed before the first pass
    and after each one, so its samples span the timed region; the wall
    time returned excludes them.
    """
    ops: List[Op] = []
    run.reference.sample(REFERENCE_REPS)
    reference_s = 0.0
    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() - reference_s < deadline:
        for label in rng.sample(list(labels), len(labels)):
            ops.append(op(label))
        sampled = time.perf_counter()
        run.reference.sample()
        reference_s += time.perf_counter() - sampled
    return ops, time.perf_counter() - start - reference_s


def _finish_layers(
    wall_s: float,
    split: Dict[str, float],
    snap: Dict[str, Dict[str, float]],
    metrics: Dict[str, float],
) -> Dict[str, Any]:
    """Close a layer split with its ``unattributed`` remainder."""
    split = {k: v for k, v in split.items() if v}
    attributed = sum(split.values())
    split["unattributed"] = wall_s - attributed
    out = layers.layer_metrics(snap)
    out.update(metrics)
    out["obs.wall_s"] = wall_s
    out["obs.coverage"] = attributed / wall_s
    return {"wall_s": wall_s, "split": split, "metrics": out}


def _import_metrics(stderrs: Sequence[str]) -> Dict[str, float]:
    """Median ``import.*`` values over processes run with ``-X importtime``."""
    parsed = [p for p in map(layers.parse_importtime, stderrs) if p]
    if not parsed:
        return {}
    return {key: _median([p[key] for p in parsed]) for key in parsed[0]}


def _probe_import(run) -> Dict[str, float]:
    """``import repro`` in a fresh interpreter, for in-process workloads."""
    proc = run.box.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True,
    )
    return _import_metrics([proc.stderr.decode(errors="replace")])


def _last_snapshot(path: Path) -> Dict[str, Any]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1])


def _ledger_sha(run_result) -> str:
    return sha256(
        json.dumps(run_result.ledger.breakdown(), sort_keys=True).encode()
    )


def _import_repro():
    """Import the program in-process; returns ``(api, cache, protocol)``."""
    from repro import api
    from repro import cache as repro_cache
    from repro.serve import protocol

    return api, repro_cache, protocol


def _spec(api, fields: Dict[str, Any], seed: int):
    fields = dict(fields, seed=seed)
    if "policy" in fields:
        fields["policy"] = api.PolicySpec(fields["policy"])
    return api.RunSpec(**fields)


# --------------------------------------------------------------------------- #
# cli-oneshot: fresh `python -m repro.cli` processes against a warm cache
# --------------------------------------------------------------------------- #

CLI_SPECS = {
    "livejournal-pagerank-compare": dict(
        dataset="livejournal-sim", tier="small", kernel="pagerank"
    ),
    "wikitalk-bfs": dict(dataset="wikitalk-sim", tier="small", kernel="bfs"),
    "uk2005-cc-distributed-ndp": dict(
        dataset="uk2005-sim", tier="tiny", kernel="cc",
        architecture="distributed-ndp",
    ),
    "twitter7-sssp-ldg": dict(
        dataset="twitter7-sim", tier="tiny", kernel="sssp", partitioner="ldg"
    ),
}
CLI_COMPARE = {"livejournal-pagerank-compare"}
#: a run holds 8-16 processes, too few for any tail beyond the median
CLI_QUANTILES = (0.5, 0.5)


def _cli_args(label: str, seed: int, cache: Path) -> List[str]:
    spec = CLI_SPECS[label]
    args = [
        "--dataset", spec["dataset"], "--tier", spec["tier"],
        "--kernel", spec["kernel"], "--seed", str(seed),
        "--cache-dir", str(cache), "--result-sha",
    ]
    if "architecture" in spec:
        args += ["--arch", spec["architecture"]]
    if "partitioner" in spec:
        args += ["--partitioner", spec["partitioner"]]
    if spec["kernel"] in ("bfs", "sssp"):
        args += ["--source", "auto"]
    if label in CLI_COMPARE:
        args.append("--compare")
    return args


def cli_oneshot(run) -> Outcome:
    rng = random.Random(run.seed)
    labels = list(CLI_SPECS)
    traced_children: List[Tuple[Op, Path, str]] = []

    def invoke(label: str, cache: Path, trace: bool = False) -> Op:
        args = _cli_args(label, run.seed, cache)
        layers_out = run.box.dir / f"cli-{len(traced_children)}.jsonl"
        if trace:
            cmd = [sys.executable, "-X", "importtime", str(CHILD),
                   str(layers_out), "repro.cli", *args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        start = time.perf_counter()
        proc = run.box.run(cmd, capture_output=True)
        op = Op(time.perf_counter() - start)
        stdout = proc.stdout.decode(errors="replace")
        last = stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 or not last[0].startswith("result sha256: "):
            op.error = f"{label}: exit {proc.returncode}: {proc.stderr[-500:]!r}"
            return op
        op.results = [
            (f"{label}.stdout_sha256", sha256(proc.stdout)),
            (f"{label}.result_sha256", last[0].split(": ", 1)[1]),
        ]
        if trace:
            traced_children.append(
                (op, layers_out, proc.stderr.decode(errors="replace"))
            )
        return op

    # Set-up: each repetition fills a fresh cache with one cold pass.
    reps, setup_ops = [], []
    for rep in range(SETUP_REPS):
        cache = run.box.dir / f"cache-{rep}"
        start = time.perf_counter()
        setup_ops += [invoke(label, cache) for label in labels]
        reps.append(time.perf_counter() - start)
    _require_ok(setup_ops)
    outputs = dict(r for op in setup_ops[: len(labels)] for r in op.results)

    # The timed passes reuse the last repetition's (now warm) cache.
    ops, wall = _closed_loop(
        run, rng, labels, lambda label: invoke(label, cache, run.traced)
    )
    rss_mb = _peak_rss_mb()

    # Cross-path check: the same specs through the in-process facade.
    api, repro_cache, protocol = _import_repro()
    repro_cache.disable()
    bad = set()
    for label in labels:
        spec = _spec(api, CLI_SPECS[label], run.seed)
        if label in CLI_COMPARE:
            values = api.compare(spec).rows[0].run.result_property()
        else:
            values = api.run(spec).result_property()
        key = f"{label}.result_sha256"
        if protocol.result_sha256(values) != outputs[key]:
            bad.add(key)

    outcome = Outcome(
        _median(reps), CLI_QUANTILES, outputs, ops, rss_mb, setup_ops, bad_keys=bad
    )
    if run.traced:
        outcome.layers = _cli_layers(wall, traced_children)
    return outcome


def _cli_layers(wall: float, children) -> Dict[str, Any]:
    split: Dict[str, float] = {"import": 0.0}
    snaps, spans, others = [], [], []
    for op, path, _stderr in children:
        snap = _last_snapshot(path)
        snaps.append(snap)
        split["import"] += snap["import_s"]
        for layer, seconds in snap["self_s"].items():
            split[layer] = split.get(layer, 0.0) + seconds
        spans.append(snap["counts"].get("spans.run_s", 0.0))
        others.append(
            op.latency_s - snap["import_s"] - sum(snap["self_s"].values())
        )
    metrics = {
        "cli.process_s": _median([op.latency_s for op, *_ in children]),
        "cli.spans_s": _median(spans),
        "cli.unattributed_s": _median(others),
    }
    metrics.update(_import_metrics([stderr for *_, stderr in children]))
    return _finish_layers(wall, split, layers.merge(snaps), metrics)


def _require_ok(ops: Sequence[Op]) -> None:
    for op in ops:
        if op.error is not None:
            raise SetupError(op.error)


# --------------------------------------------------------------------------- #
# compare-warm: repro.compare in an imported process, warm artifact cache
# --------------------------------------------------------------------------- #

COMPARE_SPECS = {
    "livejournal-medium-pagerank": dict(
        dataset="livejournal-sim", tier="medium", kernel="pagerank"
    ),
    "twitter7-small-bfs": dict(dataset="twitter7-sim", tier="small", kernel="bfs"),
    "uk2005-small-cc": dict(dataset="uk2005-sim", tier="small", kernel="cc"),
    "wikitalk-medium-pagerank": dict(
        dataset="wikitalk-sim", tier="medium", kernel="pagerank"
    ),
    "livejournal-medium-sssp-ldg": dict(
        dataset="livejournal-sim", tier="medium", kernel="sssp", partitioner="ldg"
    ),
    "uk2005-small-pagerank-adaptive": dict(
        dataset="uk2005-sim", tier="small", kernel="pagerank", policy="adaptive"
    ),
}
#: a run holds 40-80 calls, 4-8 beyond p90, all of the slowest spec; p75
#: falls between the latency populations of two specs and moves with the
#: op order
COMPARE_QUANTILES = (0.5, 0.9)


def compare_warm(run) -> Outcome:
    rng = random.Random(run.seed)
    labels = list(COMPARE_SPECS)
    start = time.perf_counter()
    api, repro_cache, protocol = _import_repro()
    import_s = time.perf_counter() - start
    specs = {label: _spec(api, COMPARE_SPECS[label], run.seed) for label in labels}

    def compare(label: str) -> Op:
        start = time.perf_counter()
        comparison = api.compare(specs[label])
        op = Op(time.perf_counter() - start)
        op.results = [
            (
                f"{label}.result_sha256",
                protocol.result_sha256(comparison.rows[0].run.result_property()),
            )
        ] + [
            (f"{label}.ledger.{row.architecture}", _ledger_sha(row.run))
            for row in comparison.rows
        ]
        return op

    reps, setup_ops = [], []
    for rep in range(SETUP_REPS):
        repro_cache.configure(run.box.dir / f"cache-{rep}")
        start = time.perf_counter()
        setup_ops += [compare(label) for label in labels]
        reps.append(time.perf_counter() - start)
    outputs = dict(r for op in setup_ops[: len(labels)] for r in op.results)

    clock = _install_clock() if run.traced else None
    ops, wall = _closed_loop(run, rng, labels, compare)
    snap = _remove_clock(clock)
    rss_mb = _peak_rss_mb()

    # Cross-path check: an independent run of the distributed deployment
    # must match that row of the shared-trace comparison bit for bit.
    repro_cache.disable()
    bad = set()
    for label in labels:
        result = api.run(specs[label], architecture="distributed", policy=None)
        for key, value in (
            (f"{label}.result_sha256",
             protocol.result_sha256(result.result_property())),
            (f"{label}.ledger.distributed", _ledger_sha(result)),
        ):
            if value != outputs[key]:
                bad.add(key)

    outcome = Outcome(
        import_s + _median(reps), COMPARE_QUANTILES, outputs, ops, rss_mb, setup_ops,
        bad_keys=bad,
    )
    if run.traced:
        metrics = _probe_import(run)
        metrics["engine.edges_per_s"] = snap["counts"].get("engine.edges", 0) / wall
        outcome.layers = _finish_layers(wall, dict(snap["self_s"]), snap, metrics)
    return outcome


def _install_clock() -> layers.LayerClock:
    from repro.obs import set_tracer

    clock = layers.LayerClock()
    clock.install()
    set_tracer(clock.tracer())
    return clock


def _remove_clock(clock: Optional[layers.LayerClock]):
    if clock is None:
        return None
    from repro.obs import set_tracer

    set_tracer(None)
    clock.uninstall()
    return clock.snapshot()


# --------------------------------------------------------------------------- #
# sweep-local / sweep-remote: the Fig. 7 sweep on one scheduler
# --------------------------------------------------------------------------- #

SWEEP_SEEDS = 4
SWEEP_JOBS = 2
#: a run holds 5-14 sweeps, too few for any tail beyond the median
SWEEP_QUANTILES = (0.5, 0.5)


def _sweep_outputs(outcomes) -> Tuple[List[Tuple[str, str]], Optional[str]]:
    errors = [o.error for o in outcomes if not o.ok]
    results = [
        (f"ledger.{o.task.label}@{o.task.seed}", o.ledger_sha256) for o in outcomes
    ]
    return results, (errors[0] if errors else None)


def sweep_fig7(run, scheduler: str) -> Outcome:
    """One op is one sweep of 20 tasks on ``scheduler`` (local or remote)."""
    start = time.perf_counter()
    _api, repro_cache, _protocol = _import_repro()
    from repro.experiments.remote import RemoteScheduler
    from repro.experiments.sweep import fig7_sweep_tasks, run_sweep

    import_s = time.perf_counter() - start
    tasks = [
        task
        for i in range(SWEEP_SEEDS)
        for task in fig7_sweep_tasks(tier="small", seed=SWEEP_SEEDS * run.seed + i)
    ]
    random.Random(run.seed).shuffle(tasks)
    token = f"e2e-{run.box.token}"
    worker_errs: List[Path] = []

    def local(trace: bool):
        start = time.perf_counter()
        outcomes = run_sweep(tasks, jobs=SWEEP_JOBS, collect_spans=trace)
        return time.perf_counter() - start, outcomes

    def remote(trace: bool):
        workers: List[subprocess.Popen] = []

        def spawn(host: str, port: int) -> None:
            for i in range(SWEEP_JOBS):
                cmd = [sys.executable]
                stderr: Any = subprocess.DEVNULL
                if trace:
                    cmd += ["-X", "importtime"]
                    err = run.box.dir / f"worker-{len(worker_errs)}.err"
                    worker_errs.append(err)
                    stderr = err.open("wb")
                cmd += ["-m", "repro.experiments.worker", f"{host}:{port}",
                        "--cache-dir", str(repro_cache.get_cache().root),
                        "--name", f"w{i}"]
                workers.append(
                    run.box.popen(
                        cmd,
                        env=dict(run.box.env, REPRO_SWEEP_TOKEN=token),
                        stdout=subprocess.DEVNULL,
                        stderr=stderr,
                    )
                )
                if trace:
                    stderr.close()

        sched = RemoteScheduler(
            token=token, min_workers=SWEEP_JOBS, worker_wait_s=60.0, on_ready=spawn
        )
        start = time.perf_counter()
        outcomes = run_sweep(tasks, scheduler=sched, collect_spans=trace)
        elapsed = time.perf_counter() - start
        for worker in workers:
            worker.wait(timeout=CHILD_TIMEOUT_S)
        return elapsed, outcomes

    # Set-up: each repetition fills a fresh cache through one local sweep.
    reps, setup_ops = [], []
    for rep in range(SETUP_REPS):
        repro_cache.configure(run.box.dir / f"cache-{rep}")
        elapsed, outcomes = local(False)
        reps.append(elapsed)
        setup_ops.append(Op(float("nan"), *_sweep_outputs(outcomes)))
    _require_ok(setup_ops)
    outputs = dict(setup_ops[0].results)

    clock = layers.LayerClock() if run.traced else None
    if clock is not None:
        clock.install()
    sweep = local if scheduler == "local" else remote
    sweeps: List[Tuple[float, list, Dict]] = []

    def one_sweep(_label: str) -> Op:
        before = clock.snapshot() if clock else None
        elapsed, outcomes = sweep(run.traced)
        if clock is not None:
            sweeps.append((elapsed, outcomes, layers.delta(clock.snapshot(), before)))
        return Op(elapsed, *_sweep_outputs(outcomes))

    ops, wall = _closed_loop(run, random.Random(run.seed), ["sweep"], one_sweep)
    rss_mb = _peak_rss_mb()
    snap = None
    if clock is not None:
        snap = clock.snapshot()
        clock.uninstall()

    # Cross-path check: remote sweeps are already checked against the local
    # set-up; local ones are checked against a serial in-process sweep.
    bad = set()
    if scheduler == "local":
        repro_cache.disable()
        serial, _error = _sweep_outputs(run_sweep(tasks, jobs=1))
        bad = {key for key, value in serial if outputs.get(key) != value}

    outcome = Outcome(
        import_s + _median(reps), SWEEP_QUANTILES, outputs, ops, rss_mb, setup_ops,
        bad_keys=bad,
    )
    if snap is not None:
        stderrs = [p.read_text(errors="replace") for p in worker_errs]
        metrics = _import_metrics(stderrs) if stderrs else _probe_import(run)
        outcome.layers = _sweep_layers(wall, snap, scheduler, sweeps, metrics)
    return outcome


def _sweep_layers(wall, parent_snap, scheduler, sweeps, metrics) -> Dict[str, Any]:
    """Parent-side self times split the wall; task spans give worker load."""
    split = dict(parent_snap["self_s"])
    workers = layers.LayerClock()
    metrics["sweep.attempts"] = 0
    overheads, busy_total = [], 0.0
    # The wait on workers is each makespan less the parent's own work in it.
    wait = f"sweep.{scheduler}"
    split[wait] = 0.0
    for makespan, outcomes, parent_delta in sweeps:
        busy = 0.0
        for out in outcomes:
            metrics["sweep.attempts"] += out.attempts
            for d in out.spans:
                span = SimpleNamespace(
                    name=d["name"], category=d["category"],
                    attrs=d.get("attrs", {}),
                    duration_s=(d["end_s"] or d["start_s"]) - d["start_s"],
                )
                if span.category == "task":
                    busy += span.duration_s
                workers.on_span_end(span)
        busy_total += busy
        overheads.append(makespan - busy / SWEEP_JOBS)
        split[wait] += makespan - sum(parent_delta["self_s"].values())
    makespan_total = sum(makespan for makespan, *_ in sweeps)
    metrics["sweep.overhead_s"] = _median(overheads)
    metrics["sweep.busy_share"] = (
        busy_total / (SWEEP_JOBS * makespan_total) if makespan_total else 0.0
    )
    worker_snap = workers.snapshot()
    metrics["engine.edges_per_s"] = worker_snap["counts"].get("engine.edges", 0) / wall
    # engine.* metrics come from the workers' task spans; the wall split
    # counts only what ran in this process.
    return _finish_layers(
        wall, split, layers.merge([parent_snap, worker_snap]), metrics
    )


# --------------------------------------------------------------------------- #
# serve-mixed: repro-serve under an open loop of hot reads and cold runs
# --------------------------------------------------------------------------- #

HOT_SPECS = {
    "run-livejournal-pagerank": ("run", dict(
        dataset="livejournal-sim", kernel="pagerank", tier="small")),
    "compare-livejournal-bfs": ("compare", dict(
        dataset="livejournal-sim", kernel="bfs", tier="small")),
    "run-twitter7-cc": ("run", dict(
        dataset="twitter7-sim", kernel="cc", tier="small")),
    "compare-wikitalk-pagerank": ("compare", dict(
        dataset="wikitalk-sim", kernel="pagerank", tier="small")),
    "run-uk2005-sssp": ("run", dict(
        dataset="uk2005-sim", kernel="sssp", tier="small")),
    "run-livejournal-cc-tiny-distributed": ("run", dict(
        dataset="livejournal-sim", kernel="cc", tier="tiny",
        architecture="distributed")),
    "compare-twitter7-sssp-tiny": ("compare", dict(
        dataset="twitter7-sim", kernel="sssp", tier="tiny")),
    "run-wikitalk-bfs-disaggregated": ("run", dict(
        dataset="wikitalk-sim", kernel="bfs", tier="small",
        architecture="disaggregated")),
}
#: cold runs: two templates of similar cost, so the tail is one population
COLD_TEMPLATES = (
    dict(dataset="livejournal-sim", kernel="bfs", tier="small"),
    dict(dataset="livejournal-sim", kernel="sssp", tier="small"),
)
HOT_SHARE = 0.8
CONNECTIONS = 2
POOL_BYTES = 32 << 20
#: requests per second.  At 25/s cold requests queue behind each other and
#: p90 spread 28-40% across seeds, above any bound the benchmark may set.
RATE = 10.0
#: The median falls on a knee: a hot request that meets a cold one in the
#: daemon waits for the GIL (5-10 ms instead of 1.5), and 30-40% of hot
#: requests do, so the median jumps between the modes from seed to seed.
#: p25 stays in the fast mode.  p85 is the lower quartile of the cold
#: fifth (15 requests beyond it in a 10 s run), short of the queueing
#: among cold requests that moves their median.
SERVE_QUANTILES = (0.25, 0.85)


@dataclass
class _Request:
    due_s: float
    kind: str
    body: Dict[str, Any]
    key: str
    hot: bool
    sent_s: float = 0.0
    done_s: float = 0.0
    status: Optional[int] = None
    payload: bytes = b""


def _schedule(seed: int, seconds: float) -> List[_Request]:
    """Fixed template counts; seeded order and Poisson arrival times.

    Arrival times uniform over the run, given their count, are a Poisson
    process conditioned on that count.
    """
    rng = random.Random(seed)
    hot_labels = list(HOT_SPECS)
    total = max(1, round(RATE * seconds))
    n_cold = round(total * (1 - HOT_SHARE))
    mix = [None] * n_cold + [hot_labels[i % len(hot_labels)]
                             for i in range(total - n_cold)]
    rng.shuffle(mix)
    times = sorted(rng.uniform(0, seconds) for _ in range(total))
    requests: List[_Request] = []
    cold = 0
    for due, label in zip(times, mix):
        if label is None:
            body = dict(COLD_TEMPLATES[cold % len(COLD_TEMPLATES)],
                        seed=1_000_000 + 10_000 * seed + cold)
            key = f"cold.{cold}.body_sha256"
            kind = "run"
            cold += 1
        else:
            kind, fields = HOT_SPECS[label]
            body = dict(fields, seed=seed)
            key = f"{label}.body_sha256"
        requests.append(_Request(due, kind, body, key, label is not None))
    return requests


def _http(conn: http.client.HTTPConnection, method: str, path: str,
          body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class _Daemon:
    """One ``repro-serve`` subprocess with its ready-file handshake."""

    def __init__(self, run, rep: int, cache: Path) -> None:
        self.run = run
        ready = run.box.dir / f"ready-{rep}.json"
        self.layers_out = run.box.dir / f"serve-{rep}.jsonl"
        self.stderr_path = run.box.dir / f"serve-{rep}.err"
        args = ["--port", "0", "--serve-workers", "2",
                "--pool-bytes", str(POOL_BYTES), "--cache-dir", str(cache),
                "--ready-file", str(ready)]
        if run.traced:
            cmd = [sys.executable, "-X", "importtime", str(CHILD),
                   str(self.layers_out), "repro.serve.cli", *args]
        else:
            cmd = [sys.executable, "-m", "repro.serve.cli", *args]
        start = time.perf_counter()
        with self.stderr_path.open("wb") as err:
            self.proc = run.box.popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        deadline = start + CHILD_TIMEOUT_S
        while True:
            try:
                self.port = int(json.loads(ready.read_text())["port"])
                break
            except (OSError, ValueError, KeyError):
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise SetupError(f"repro-serve never became ready: {self.stderr()}")
            time.sleep(0.005)
        self.ready_s = time.perf_counter() - start

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=CHILD_TIMEOUT_S
        )

    def stats(self) -> Dict[str, Any]:
        conn = self.connect()
        try:
            return json.loads(_http(conn, "GET", "/v1/stats")[1])
        finally:
            conn.close()

    def snapshot(self) -> Dict[str, Any]:
        """Ask the traced daemon for a layer snapshot (SIGUSR1) and read it."""
        count = len(self._snapshots())
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while len(self._snapshots()) <= count:
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not write a layer snapshot")
            time.sleep(0.005)
        return json.loads(self._snapshots()[-1])

    def _snapshots(self) -> List[str]:
        try:
            return self.layers_out.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def serve_mixed(run) -> Outcome:
    hot_labels = list(HOT_SPECS)
    reps, ready, setup_ops = [], [], []
    daemon = None
    for rep in range(SETUP_REPS):
        if daemon is not None:
            daemon.stop()
        start = time.perf_counter()
        daemon = _Daemon(run, rep, run.box.dir / f"cache-{rep}")
        conn = daemon.connect()
        try:
            for label in hot_labels:
                kind, fields = HOT_SPECS[label]
                status, body = _http(conn, "POST", f"/v1/{kind}",
                                     dict(fields, seed=run.seed))
                error = None if status == 200 else f"{label}: HTTP {status} {body[:300]!r}"
                setup_ops.append(Op(float("nan"),
                                    [(f"{label}.body_sha256", sha256(body))], error))
        finally:
            conn.close()
        reps.append(time.perf_counter() - start)
        ready.append(daemon.ready_s)
    _require_ok(setup_ops)
    outputs = dict(r for op in setup_ops[: len(hot_labels)] for r in op.results)

    requests = _schedule(run.seed, run.seconds)
    run.reference.sample(REFERENCE_REPS)
    stats_before = daemon.stats()
    snap_before = daemon.snapshot() if run.traced else None
    queue_peak = [0]
    finished = threading.Event()

    def sample_queue() -> None:
        # Traced runs only: a third connection polls the admission queue.
        while not finished.wait(0.05):
            queue_peak[0] = max(queue_peak[0], daemon.stats()["admission"]["queued"])

    lock = threading.Lock()
    cursor = [0]
    in_flight = [0]
    start = time.perf_counter()

    def sender() -> None:
        conn = daemon.connect()
        try:
            while True:
                with lock:
                    if cursor[0] >= len(requests):
                        return
                    req = requests[cursor[0]]
                    cursor[0] += 1
                delay = start + req.due_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    req.sent_s = time.perf_counter() - start
                    in_flight[0] += 1
                try:
                    req.status, req.payload = _http(
                        conn, "POST", f"/v1/{req.kind}", req.body
                    )
                except (OSError, http.client.HTTPException) as exc:
                    req.payload = repr(exc).encode()
                    conn.close()
                    conn = daemon.connect()
                with lock:
                    req.done_s = time.perf_counter() - start
                    in_flight[0] -= 1
        finally:
            conn.close()

    def sample_gaps() -> None:
        """Time the reference kernel where no request is in flight or due."""
        unsent = 0
        while not finished.is_set():
            with lock:
                while unsent < len(requests) and requests[unsent].sent_s:
                    unsent += 1
                idle = in_flight[0] == 0
                next_due = (
                    requests[unsent].due_s if unsent < len(requests) else math.inf
                )
            if idle and next_due - (time.perf_counter() - start) > REFERENCE_GAP_S:
                run.reference.sample()
            else:
                time.sleep(0.005)

    helpers = [threading.Thread(target=sample_gaps)]
    if run.traced:
        helpers.append(threading.Thread(target=sample_queue))
    for helper in helpers:
        helper.start()
    try:
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            for future in [pool.submit(sender) for _ in range(CONNECTIONS)]:
                future.result()
        wall = time.perf_counter() - start
    finally:
        finished.set()
        for helper in helpers:
            helper.join()
    stats_after = daemon.stats()
    snap_after = daemon.snapshot() if run.traced else None
    daemon.stop()
    rss_mb = _peak_rss_mb()

    ops = []
    for req in requests:
        error = None
        if req.status != 200:
            error = f"{req.key}: HTTP {req.status} {req.payload[:300]!r}"
        ops.append(Op(req.done_s - req.due_s, [(req.key, sha256(req.payload))], error))

    # Cross-path check: every body must be what the in-process facade
    # encodes for the same spec, from a freshly generated graph.
    api, repro_cache, protocol = _import_repro()
    repro_cache.disable()

    def expected(kind: str, fields: Dict[str, Any]) -> str:
        spec = api.RunSpec(**fields)
        if kind == "compare":
            payload = protocol.encode_compare(spec, api.compare(spec))
        else:
            payload = protocol.encode_run(spec, api.run(spec))
        return sha256(protocol.canonical_bytes(payload))

    bad = {
        f"{label}.body_sha256"
        for label, (kind, fields) in HOT_SPECS.items()
        if expected(kind, dict(fields, seed=run.seed)) != outputs[f"{label}.body_sha256"]
    }
    references = {
        req.key: expected(req.kind, req.body) for req in requests if not req.hot
    }
    outcome = Outcome(
        _median(reps), SERVE_QUANTILES, outputs, ops, rss_mb, setup_ops, references, bad
    )
    if run.traced:
        outcome.layers = _serve_layers(
            wall, requests, stats_before, stats_after,
            layers.delta(snap_after, snap_before), daemon,
            {"serve.ready_s": _median(ready), "serve.queue_peak": queue_peak[0]},
        )
    return outcome


def _serve_layers(wall, requests, before, after, daemon_snap, daemon, metrics):
    """Split the two connections' time: idle, daemon layers, the rest."""

    def moved(*path: str) -> float:
        a, b = after, before
        for part in path:
            a, b = a[part], b[part]
        return a - b

    ms = 1e3
    latencies = {
        hot: [(r.done_s - r.due_s) * ms for r in requests if r.hot == hot]
        for hot in (True, False)
    }
    hits, misses = moved("results", "hits"), moved("results", "misses")
    metrics.update({
        "serve.hit_p50_ms": percentile(latencies[True], 0.5),
        "serve.miss_p50_ms": percentile(latencies[False], 0.5),
        "serve.result_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.executions": moved("executor", "executions"),
        "serve.coalesce_attached": moved("coalescer", "attached"),
        "serve.pool_evictions": moved("pool", "evictions"),
        "serve.shed": moved("admission", "shed") + moved("admission", "quota_rejects"),
        "serve.exec_spans_s": daemon_snap["counts"].get("spans.run_s", 0.0),
        "serve.gen_late_p99_ms": percentile(
            [(r.sent_s - r.due_s) * ms for r in requests], 0.99
        ),
        "engine.edges_per_s": daemon_snap["counts"].get("engine.edges", 0) / wall,
    })
    metrics.update(_import_metrics([daemon.stderr_path.read_text(errors="replace")]))
    busy = sum(r.done_s - r.sent_s for r in requests)
    connection_s = CONNECTIONS * wall
    split = dict(daemon_snap["self_s"])
    split["serve.client_idle"] = connection_s - busy
    return _finish_layers(connection_s, split, daemon_snap, metrics)


WORKLOADS: Dict[str, Callable[[Any], Outcome]] = {
    "cli-oneshot": cli_oneshot,
    "compare-warm": compare_warm,
    "sweep-local": functools.partial(sweep_fig7, scheduler="local"),
    "sweep-remote": functools.partial(sweep_fig7, scheduler="remote"),
    "serve-mixed": serve_mixed,
}
