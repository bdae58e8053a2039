"""Experiment CLI: ``python -m repro.experiments`` / ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments run fig5
    repro-experiments run fig6 --tier tiny
    repro-experiments run sweep --jobs 4
    repro-experiments run sweep --dry-run
    repro-experiments run sweep --scheduler remote --ready-file cf.json
    repro-experiments run all --json out/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cli_common import (
    add_fault_seed_arg,
    add_jobs_arg,
    add_observability_args,
    add_policy_arg,
)
from repro.errors import ExperimentError
from repro.experiments import ALL_EXPERIMENTS
from repro.obs import tracing_session
from repro.telemetry.report import to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser(
        "run", help="run one experiment (or 'all')", allow_abbrev=False
    )
    run_p.add_argument("experiment", help="experiment id or 'all'")
    run_p.add_argument(
        "--tier",
        default="small",
        choices=("tiny", "small", "medium", "large"),
        help="dataset size tier",
    )
    run_p.add_argument("--seed", type=int, default=7, help="dataset seed")
    run_p.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="cap the engine's per-iteration edge transients (e.g. '8G', "
        "'512MiB'); over budget, edges stream in blocks with bit-identical "
        "results.  Applies to the 'sweep' experiment",
    )
    run_p.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.json with the raw series",
    )
    add_jobs_arg(run_p)
    add_fault_seed_arg(run_p)
    add_observability_args(run_p)
    add_policy_arg(run_p)
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task timeout for the 'sweep' experiment (hung workers "
        "are killed and the task retried)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget for crashed or timed-out sweep workers "
        "(exponential backoff between rounds)",
    )
    cache_mode = run_p.add_mutually_exclusive_group()
    cache_mode.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache generated graphs under DIR and reuse them on repeat "
        "runs (default: $REPRO_CACHE_DIR if set, else no caching)",
    )
    cache_mode.add_argument(
        "--no-cache",
        action="store_true",
        help="regenerate everything, ignoring $REPRO_CACHE_DIR",
    )
    fail_mode = run_p.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        help="record sweep tasks that exhaust their retries as FAILED rows "
        "and finish the rest",
    )
    fail_mode.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the sweep on the first task that exhausts its retries "
        "(default)",
    )
    fail_mode.set_defaults(keep_going=False)
    run_p.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write a crash-safe write-ahead journal of the 'sweep' "
        "experiment to FILE (one fsync'd JSONL record per task event)",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="resume a journaled sweep: completed tasks are skipped and "
        "their journaled outcomes reused verbatim (requires --journal)",
    )
    run_p.add_argument(
        "--quarantine-after",
        type=int,
        default=None,
        metavar="K",
        help="quarantine a sweep task after it kills a worker K "
        "times instead of burning the retry budget on it",
    )
    run_p.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="declare a sweep worker hung when its keepalive goes stale "
        "for this long (default: 30)",
    )
    run_p.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="arm the process-level chaos harness for the 'sweep' "
        "experiment (deterministic victim choice; see repro.chaos)",
    )
    run_p.add_argument(
        "--chaos-kill",
        type=int,
        default=0,
        metavar="N",
        help="SIGKILL the worker running each of N victim tasks "
        "(requires --chaos-seed)",
    )
    run_p.add_argument(
        "--chaos-hang",
        type=int,
        default=0,
        metavar="N",
        help="SIGSTOP the worker running each of N victim tasks "
        "(requires --chaos-seed)",
    )
    run_p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved sweep task list and its content digest "
        "(sweep_digest) without executing anything",
    )
    run_p.add_argument(
        "--scheduler",
        default="local",
        choices=("local", "remote"),
        help="sweep execution placement: 'local' (in-process, or --jobs "
        "forked workers; the default) or 'remote' (TCP coordinator "
        "feeding repro-worker processes)",
    )
    run_p.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="coordinator bind endpoint for --scheduler remote "
        "(port 0 = OS-assigned; default: 127.0.0.1:0)",
    )
    run_p.add_argument(
        "--token",
        default=None,
        help="shared worker token for --scheduler remote "
        "(default: $REPRO_SWEEP_TOKEN)",
    )
    run_p.add_argument(
        "--ready-file",
        default=None,
        metavar="FILE",
        help="write {pid, host, port} JSON once the coordinator is bound "
        "(what workers and scripts poll for the actual port)",
    )
    run_p.add_argument(
        "--min-workers",
        type=int,
        default=1,
        metavar="N",
        help="wait for N connected workers before declaring the "
        "coordinator ready (default: 1)",
    )
    run_p.add_argument(
        "--worker-wait",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="how long to wait for --min-workers before giving up "
        "(default: 60)",
    )
    return parser


def run_experiment(
    experiment_id: str,
    *,
    tier: str = "small",
    seed: int = 7,
    json_dir: Optional[str] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    keep_going: bool = False,
    memory_budget_bytes: Optional[int] = None,
    fault_seed: Optional[int] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    poison_threshold: Optional[int] = None,
    heartbeat_timeout_s: float = 30.0,
    chaos_spec=None,
    scheduler=None,
    dry_run: bool = False,
    policy=None,
) -> str:
    """Run one experiment and return its rendered report."""
    try:
        fn = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(sorted(ALL_EXPERIMENTS))}"
        ) from None
    if policy is not None and experiment_id != "sweep":
        raise ExperimentError(
            f"--policy applies to the 'sweep' experiment (it overrides the "
            f"disaggregated-NDP offload policy per task); {experiment_id!r} "
            "fixes its own policies"
        )
    if experiment_id == "table1":
        result = fn()  # type: ignore[call-arg]
    elif experiment_id == "sweep":
        result = fn(  # type: ignore[call-arg]
            tier=tier,
            seed=seed,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            keep_going=keep_going,
            memory_budget_bytes=memory_budget_bytes,
            fault_seed=fault_seed,
            journal_path=journal_path,
            resume=resume,
            poison_threshold=poison_threshold,
            heartbeat_timeout_s=heartbeat_timeout_s,
            chaos_spec=chaos_spec,
            scheduler=scheduler,
            dry_run=dry_run,
            policy=policy,
        )
    elif experiment_id == "faults":
        result = fn(  # type: ignore[call-arg]
            tier=tier, seed=seed, fault_seed=fault_seed
        )
    else:
        result = fn(tier=tier, seed=seed)  # type: ignore[call-arg]
    if json_dir:
        out = Path(json_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{experiment_id}.json").write_text(to_json(result.data))
    return result.render()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(ALL_EXPERIMENTS):
            print(name)
        return 0
    from repro import cache as repro_cache

    if args.no_cache:
        repro_cache.disable()
    elif args.cache_dir is not None:
        repro_cache.configure(args.cache_dir)
    targets = (
        sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    budget = None
    if args.memory_budget is not None:
        from repro.utils.units import parse_bytes

        try:
            budget = parse_bytes(args.memory_budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.resume and args.journal is None:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.dry_run and targets != ["sweep"]:
        print(
            "error: --dry-run applies to the 'sweep' experiment only",
            file=sys.stderr,
        )
        return 2
    scheduler = None
    if args.scheduler == "remote":
        if targets != ["sweep"]:
            print(
                "error: --scheduler remote applies to the 'sweep' "
                "experiment only",
                file=sys.stderr,
            )
            return 2
        import os as _os

        from repro.errors import SchedulerError
        from repro.experiments.remote import TOKEN_ENV, RemoteScheduler

        token = args.token or _os.environ.get(TOKEN_ENV, "")
        try:
            bind_host, _sep, bind_port = args.bind.rpartition(":")
            if not _sep or not bind_host:
                raise ValueError
            scheduler = RemoteScheduler(
                host=bind_host,
                port=int(bind_port),
                token=token,
                min_workers=args.min_workers,
                worker_wait_s=args.worker_wait,
                ready_file=args.ready_file,
            )
        except ValueError:
            print(
                f"error: --bind expects HOST:PORT, got {args.bind!r}",
                file=sys.stderr,
            )
            return 2
        except SchedulerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    chaos_spec = None
    if args.chaos_seed is not None:
        from repro.chaos import ChaosSpec

        chaos_spec = ChaosSpec(
            seed=args.chaos_seed,
            kill_tasks=args.chaos_kill,
            hang_tasks=args.chaos_hang,
        )
    elif args.chaos_kill or args.chaos_hang:
        print(
            "error: --chaos-kill/--chaos-hang require --chaos-seed",
            file=sys.stderr,
        )
        return 2
    with tracing_session(
        trace_out=args.trace_out,
        jsonl_out=args.trace_events,
        decision_out=args.decision_trace,
        progress=args.progress,
    ):
        for target in targets:
            try:
                report = run_experiment(
                    target,
                    tier=args.tier,
                    seed=args.seed,
                    json_dir=args.json,
                    jobs=args.jobs,
                    timeout=args.timeout,
                    retries=args.retries,
                    keep_going=args.keep_going,
                    memory_budget_bytes=budget,
                    fault_seed=args.fault_seed,
                    journal_path=args.journal,
                    resume=args.resume,
                    poison_threshold=args.quarantine_after,
                    heartbeat_timeout_s=args.heartbeat_timeout,
                    chaos_spec=chaos_spec,
                    scheduler=scheduler,
                    dry_run=args.dry_run,
                    policy=args.policy,
                )
            except ExperimentError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(report)
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    active = repro_cache.get_cache()
    if active is not None and len(active.counters):
        from repro.telemetry.report import cache_table

        print()
        print(cache_table(active.counters))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
