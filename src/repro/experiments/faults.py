"""Fault-injection experiment — degraded vs fault-free accounting.

Runs the same recorded workload through all four architecture simulators
twice: once fault-free and once under a seed-driven fault schedule
(memory-node crashes, NDP-device failures, link degradation, message
drops) with periodic checkpointing.  The numerics execute once per pass
and are identical across passes — only the accounting differs — so the
table isolates each deployment's *recovery bill*: how many extra bytes and
seconds the same computation costs when the infrastructure misbehaves.

This is the resilience angle of the paper's resource-independence
argument: a disaggregated pool re-replicates a lost shard pool-side
(memory links), while a coupled cluster pays for it on the very host links
the application's own traffic uses.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.compare import compare_architectures
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.faults.checkpoint import EveryKCheckpoint
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.telemetry.report import fault_table
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes

#: Default schedule knobs: every fault class fires at least plausibly
#: within a 30-iteration horizon on an 8-part pool.
DEFAULT_SPEC_KWARGS = dict(
    memory_crash_prob=0.05,
    ndp_failure_prob=0.10,
    link_degradation_prob=0.10,
    message_drop_prob=0.15,
    replication_factor=2,
)


def default_fault_spec(
    *, seed: int, num_parts: int, horizon: int
) -> FaultSpec:
    """The experiment's deterministic schedule recipe."""
    return FaultSpec(
        seed=seed, horizon=horizon, num_parts=num_parts, **DEFAULT_SPEC_KWARGS
    )


def run(
    *,
    tier: str = DEFAULT_TIER,
    seed: int = DEFAULT_SEED,
    dataset: str = "livejournal-sim",
    kernel: str = "pagerank",
    num_nodes: int = 8,
    max_iterations: int = 12,
    spec: Optional[FaultSpec] = None,
    checkpoint_interval: int = 4,
    fault_seed: Optional[int] = None,
) -> ExperimentResult:
    """Fault experiment entry point (``repro-experiments run faults``).

    ``fault_seed`` reseeds the fault schedule independently of the dataset
    seed (the CLI's ``--fault-seed``); an explicit ``spec`` wins over both.
    """
    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    config = SystemConfig(num_compute_nodes=1, num_memory_nodes=num_nodes)
    prog = get_kernel(kernel)
    spec = spec or default_fault_spec(
        seed=fault_seed if fault_seed is not None else seed,
        num_parts=num_nodes,
        horizon=max_iterations,
    )
    schedule = FaultSchedule.from_spec(spec)

    clean = compare_architectures(
        graph,
        prog,
        config=config,
        max_iterations=max_iterations,
        graph_name=ds.name,
        seed=seed,
    )
    degraded = compare_architectures(
        graph,
        prog,
        config=config,
        max_iterations=max_iterations,
        graph_name=ds.name,
        seed=seed,
        faults=schedule,
        checkpoint=EveryKCheckpoint(k=checkpoint_interval),
    )

    table = TextTable(
        [
            "architecture",
            "fault-free bytes",
            "degraded bytes",
            "recovery bytes",
            "overhead %",
            "slowdown %",
        ],
        title=(
            f"Degraded vs fault-free — {prog.name} on {ds.name}, "
            f"{len(schedule)} scheduled events (seed {spec.seed})"
        ),
    )
    data: dict = {
        "spec": {
            "seed": spec.seed,
            "horizon": spec.horizon,
            "num_parts": spec.num_parts,
            "replication_factor": spec.replication_factor,
            "events": len(schedule),
        },
        "architectures": {},
    }
    for clean_row, degraded_row in zip(clean.rows, degraded.rows):
        clean_run, degraded_run = clean_row.run, degraded_row.run
        base_bytes = clean_run.total_network_bytes
        worse_bytes = degraded_run.total_network_bytes
        recovery = degraded_run.total_recovery_bytes
        overhead = 100.0 * (worse_bytes - base_bytes) / base_bytes if base_bytes else 0.0
        slowdown = (
            100.0 * (degraded_run.total_seconds - clean_run.total_seconds)
            / clean_run.total_seconds
            if clean_run.total_seconds
            else 0.0
        )
        table.add_row(
            clean_row.architecture,
            format_bytes(base_bytes),
            format_bytes(worse_bytes),
            format_bytes(recovery),
            f"{overhead:.1f}",
            f"{slowdown:.1f}",
        )
        data["architectures"][clean_row.architecture] = {
            "fault_free_bytes": int(base_bytes),
            "degraded_bytes": int(worse_bytes),
            "recovery_bytes": int(recovery),
            "fault_events": int(degraded_run.counters.get("fault-events")),
            "checkpoint_bytes": int(degraded_run.counters.get("checkpoint-bytes")),
            "overhead_pct": overhead,
            "slowdown_pct": slowdown,
        }

    showcase = degraded.row("disaggregated-ndp").run
    tables = [
        table,
        fault_table(showcase.ledger, showcase.counters,
                    title="disaggregated-ndp fault/recovery detail"),
    ]
    result = ExperimentResult(
        experiment_id="faults",
        title="Fault injection — recovery accounting across architectures",
        tables=tables,
        data=data,
    )
    result.notes.append(
        "Kernel numerics are identical in both passes; faults only change "
        "what the accounting sees (recovery, checkpoint and retransmission "
        "movement on top of the application's own traffic)."
    )
    return result
