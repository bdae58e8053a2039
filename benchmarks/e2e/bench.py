"""End-to-end benchmark: one workload per fresh process.

Run from the root of a checkout::

    python3 benchmarks/e2e/bench.py --workload W --seed S --seconds T --trace 0|1

The workloads (``workloads.py``) are ``cli-oneshot``, ``compare-warm``,
``sweep-local``, ``sweep-remote`` and ``serve-mixed``.  The run sets up
``SETUP_REPS`` times (``setup_s`` is the median), measures for
``--seconds``, checks every output, and prints two lines to stdout:

* ``e2e-run {...}`` -- workload, seed, ``outputs_sha256`` and sample
  counts, which ``compare.py`` uses to pair runs, and ``host_scale``;
* the result object ``{"correct", "attempted", "failed", "metrics"}``,
  always the last line.  ``--trace 0`` reports the end-to-end metrics of
  ``BENCHMARK.json``, ``--trace 1`` the per-layer ones and writes
  ``benchmarks/e2e/out/layers-<workload>.json`` with the layer split.

Timings are reported in reference-host time: between ops the run times
a fixed CPU kernel (``reference.py``), and ``setup_s``,
``op_typical_ms``, ``op_tail_ms`` and ``obs.op_typical_ms`` are scaled
by ``REFERENCE_HOST_S`` over the kernel's median (``host_scale``).

Isolation: the program is imported from ``src/`` of this checkout only;
``REPRO_CACHE_DIR`` is ignored; every file, temporary files included,
goes under ``benchmarks/e2e/.tmp/<run>/``, removed on exit.  The bench
adopts orphaned descendants (it is a child subreaper) and, before it
exits, waits for and reaps every process the run started, its own
multiprocessing resource tracker included.  Leftover child processes or
``/dev/shm/rsw*`` segments are killed or removed and count as failures.
``--write-goldens`` (seed 0 only) records this run's outputs in
``goldens.json`` instead of checking against it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from reference import Reference
from workloads import CHILD_TIMEOUT_S, WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TMP_ROOT = HERE / ".tmp"
OUT_DIR = HERE / "out"
GOLDENS = HERE / "goldens.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: marks this run's descendants, so leftovers can be found in /proc
RUN_ENV = "E2E_BENCH_RUN"
SHM_DIR = Path("/dev/shm")
#: prctl option that makes orphaned descendants children of this process
PR_SET_CHILD_SUBREAPER = 36
#: how long descendants get to end on their own before they are killed
SETTLE_S = 5.0


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("rsw")}


def _leftover_processes(marker: bytes) -> List[int]:
    """Live processes carrying ``marker`` in environ, and live children.

    Zombies are not listed: they have ended and only wait to be reaped.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            # state and ppid follow the parenthesised command name
            state, ppid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:2]
            environ = (entry / "environ").read_bytes().split(b"\0")
        except (OSError, ValueError):
            continue
        if state != "Z" and (marker in environ or int(ppid) == os.getpid()):
            found.append(int(entry.name))
    return found


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so the bench can wait for and reap them.

    A child's own helpers (such as multiprocessing's resource tracker)
    outlive it briefly; without this they would end as orphans nobody
    waits for.  Returns False where the kernel does not offer it.
    """
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False  # not Linux: orphans go to init, which reaps them
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _reap() -> None:
    """Collect every child that has ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _settle(marker: bytes) -> List[int]:
    """Reap descendants as they end; returns those alive after ``SETTLE_S``."""
    deadline = time.monotonic() + SETTLE_S
    while True:
        _reap()
        left = _leftover_processes(marker)
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def _stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    Left alone it would end only after the bench does, unwaited.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


class Sandbox:
    """One run's private directory, child processes and leak checks."""

    def __init__(self, workload: str) -> None:
        self.token = f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.dir = TMP_ROOT / self.token
        self.procs: List[subprocess.Popen] = []
        self.issues: List[str] = []
        self.env: Dict[str, str] = {}

    def __enter__(self) -> "Sandbox":
        become_subreaper()
        self.dir.mkdir(parents=True)
        self._shm_before = _shm_segments()
        os.environ[RUN_ENV] = self.token
        os.environ["TMPDIR"] = str(self.dir)
        tempfile.tempdir = None  # re-read TMPDIR
        self.env = dict(os.environ)
        return self

    def popen(self, cmd: List[str], **kwargs: Any) -> subprocess.Popen:
        kwargs.setdefault("env", self.env)
        proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc

    def run(self, cmd: List[str], **kwargs: Any) -> subprocess.CompletedProcess:
        kwargs.setdefault("env", self.env)
        return subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kwargs)

    def __exit__(self, *exc_info) -> bool:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                self.issues.append(f"child {proc.args[:4]} still running at exit")
            proc.wait()
        # Before the tracker stops: it would unlink what the run leaked.
        for name in sorted(_shm_segments() - self._shm_before):
            self.issues.append(f"/dev/shm residue {name}")
            (SHM_DIR / name).unlink(missing_ok=True)
        _stop_resource_tracker()
        marker = f"{RUN_ENV}={self.token}".encode()
        for pid in _settle(marker):
            self.issues.append(f"orphaned process {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        _settle(marker)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
        return False


def _evaluate(outcome, reference: Dict[str, str]) -> List[str]:
    """Describe every op whose outputs disagree with the reference."""
    failures = []
    for op in outcome.setup_ops + outcome.ops:
        if op.error is not None:
            failures.append(op.error)
            continue
        for key, value in op.results:
            if key in outcome.bad_keys:
                failures.append(f"{key}: an independent path disagrees")
                break
            if reference.get(key) != value:
                failures.append(f"{key}: {value} != {reference.get(key)}")
                break
    return failures


def _latencies_ms(outcome) -> List[float]:
    return [op.latency_s * 1e3 for op in outcome.ops if op.error is None]


def _end_to_end(outcome, scale: float) -> Dict[str, float]:
    latencies_ms = _latencies_ms(outcome)
    typical_q, tail_q = outcome.quantiles
    return {
        "setup_s": outcome.setup_s * scale,
        "op_typical_ms": percentile(latencies_ms, typical_q) * scale,
        "op_tail_ms": percentile(latencies_ms, tail_q) * scale,
        "peak_rss_mb": outcome.rss_mb,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # The program comes from this checkout only, never an installed copy.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    golden = None
    if args.seed == 0 and not args.write_goldens:
        golden = goldens.get(args.workload)
        if golden is None:
            print(f"error: goldens.json has no {args.workload!r} entry",
                  file=sys.stderr)
            return 2

    # A terminated run still leaves through Sandbox.__exit__.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    with Sandbox(args.workload) as box:
        run = SimpleNamespace(
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace), box=box,
            reference=Reference(box),
        )
        outcome = WORKLOADS[args.workload](run)
        scale = run.reference.close()
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"measured {repro.__file__}, not {SRC}")

    failures = list(box.issues)
    reference = dict(outcome.outputs, **outcome.references)
    if golden is not None:
        if outcome.outputs != golden:
            failures.append("set-up outputs differ from goldens.json")
        reference.update(golden)
    failures += _evaluate(outcome, reference)
    if args.write_goldens:
        if args.seed != 0:
            print("error: goldens are recorded for seed 0", file=sys.stderr)
            return 2
        goldens[args.workload] = outcome.outputs
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = dict(outcome.layers["metrics"])
        # The traced twin of op_typical_ms; compare.py --overhead pairs them.
        values["obs.op_typical_ms"] = _end_to_end(outcome, scale)["op_typical_ms"]
        OUT_DIR.mkdir(exist_ok=True)
        layers_path = OUT_DIR / f"layers-{args.workload}.json"
        report = dict(outcome.layers, workload=args.workload, seed=args.seed)
        layers_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    else:
        values = _end_to_end(outcome, scale)
    metrics = {}
    for metric in spec[section]:
        value = float(values.get(metric["name"], 0.0))
        if not math.isfinite(value):
            failures.append(f"{metric['name']} is not finite")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    attempted = len(outcome.ops) + len(outcome.setup_ops)
    for line in failures[:20]:
        print(f"failure: {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(outcome.ops),
        # divide a timing by this to get this host's unscaled number
        "host_scale": scale,
        "outputs_sha256": hashlib.sha256(
            json.dumps(outcome.outputs, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
    }
    print("e2e-run " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
