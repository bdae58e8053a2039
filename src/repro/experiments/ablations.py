"""Ablation experiments for the design choices DESIGN.md calls out.

* **dynamic policy** (Section IV.D): does per-iteration decision making beat
  the static always/never deployments, and how close is the realistic
  heuristic to the oracle?
* **cost-model fidelity** (Section IV.A/D): how accurate are the
  balls-in-bins movement estimates the dynamic policy relies on?
* **switch buffer** (Section IV.C): how does INC benefit degrade as the
  aggregation table shrinks — the buffer-capacity caveat the paper raises.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.runtime.cost_model import estimate_movement, exact_movement
from repro.runtime.offload import get_policy, list_policies
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes

WORKLOADS = (
    ("cc", "twitter7-sim", 32),
    ("sssp", "livejournal-sim", 32),
    ("pagerank", "livejournal-sim", 16),
    ("bfs", "twitter7-sim", 32),
)


def run_dynamic_policy(
    *,
    tier: str = DEFAULT_TIER,
    max_iterations: int = 30,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Compare total movement across offload policies on Fig. 7 workloads."""
    policies = ("never", "always", "threshold", "dynamic", "oracle")
    table = TextTable(
        ["kernel", "graph"] + [f"{p} (KB)" for p in policies] + ["best"],
        title="Ablation — offload policy total movement",
    )
    data: Dict[str, Dict[str, float]] = {}
    for kernel_name, dataset, parts in WORKLOADS:
        graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
        kernel = get_kernel(kernel_name)
        trace = record_trace(
            graph,
            kernel,
            num_parts=parts,
            source=int(graph.out_degrees.argmax()) if kernel.needs_source else None,
            max_iterations=max_iterations,
            graph_name=ds.name,
            seed=seed,
            with_mirrors=False,
        )
        config = SystemConfig(num_memory_nodes=parts)
        totals = {
            name: float(
                DisaggregatedNDPSimulator(config, policy=get_policy(name))
                .replay(trace)
                .total_host_link_bytes
            )
            for name in policies
        }
        best = min(totals, key=totals.get)  # type: ignore[arg-type]
        table.add_row(
            kernel_name,
            dataset,
            *(totals[p] / 1e3 for p in policies),
            best,
        )
        data[f"{kernel_name}/{dataset}"] = totals
    result = ExperimentResult(
        experiment_id="ablation-dynamic",
        title="Per-iteration dynamic offload vs static policies",
        tables=[table],
        data=data,
    )
    result.notes.append(
        "Expected: oracle <= min(always, never) on every workload; dynamic "
        "tracks oracle closely (its gap is the cost-model estimation error)."
    )
    return result


def _mixed_density_graph(scale: int, seed: int):
    """Half dense RMAT, half sparse chain — shards of divergent density.

    Stands for real deployments whose memory nodes hold regions of very
    different connectivity (e.g. a web graph's dense core next to crawl
    frontier chains); the case where a single global offload decision is
    provably suboptimal.
    """
    import numpy as np

    from repro.graph.csr import CSRGraph
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    half = 1 << (scale - 1)
    dense_m = 24 * half
    dsrc = rng.integers(0, half, dense_m)
    ddst = rng.integers(0, half, dense_m)
    ssrc = np.arange(half, 2 * half - 1)
    return CSRGraph.from_edges(
        np.concatenate([dsrc, ssrc]),
        np.concatenate([ddst, ssrc + 1]),
        2 * half,
        dedup=True,
    )


def run_per_part_offload(
    *,
    tier: str = DEFAULT_TIER,
    num_partitions: int = 8,
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Hybrid per-node offload vs global policies (§IV: "which ... and where").

    On a graph whose range shards have divergent densities, offloading only
    the dense shards beats both pure deployments; this quantifies the gap.
    """
    from repro.partition.range_chunk import RangePartitioner

    scale = {"tiny": 9, "small": 12, "medium": 14}.get(tier, 12)
    graph = _mixed_density_graph(scale, seed)
    assignment = RangePartitioner().partition(graph, num_partitions)
    trace = record_trace(
        graph,
        get_kernel("pagerank", max_iterations=max_iterations),
        assignment=assignment,
        max_iterations=max_iterations,
        seed=seed,
        with_mirrors=False,
    )
    config = SystemConfig(num_memory_nodes=num_partitions)
    policies = ("never", "always", "dynamic", "per-part", "oracle")
    totals = {}
    mixed_iters = {}
    for name in policies:
        sim = DisaggregatedNDPSimulator(config, policy=get_policy(name))
        run_result = sim.replay(trace)
        totals[name] = float(run_result.total_host_link_bytes)
        mixed_iters[name] = float(run_result.counters["iterations-mixed"])
    oracle_pp = DisaggregatedNDPSimulator(
        config, policy=get_policy("per-part", oracle=True)
    ).replay(trace)
    totals["per-part-oracle"] = float(oracle_pp.total_host_link_bytes)

    table = TextTable(
        ["policy", "movement (KB)", "vs best global", "hybrid iters"],
        title="Ablation — per-part (hybrid) offload, PageRank on mixed-density shards",
    )
    best_global = min(totals["always"], totals["never"])
    for name in list(policies) + ["per-part-oracle"]:
        table.add_row(
            name,
            totals[name] / 1e3,
            totals[name] / best_global,
            mixed_iters.get(name, 0.0),
        )
    result = ExperimentResult(
        experiment_id="ablation-per-part",
        title="Per-memory-node offload decisions",
        tables=[table],
        data={"totals": totals, "best_global": best_global},
    )
    result.notes.append(
        "Expected: per-part <= min(always, never) — the hybrid deployment "
        "offloads the dense shards and fetches the sparse ones."
    )
    return result


def run_cost_model_fidelity(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_partitions: int = 16,
    max_iterations: int = 10,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Per-iteration estimate-vs-measured error of the movement cost model."""
    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    config = SystemConfig(num_memory_nodes=num_partitions)
    kernel = get_kernel("pagerank", max_iterations=max_iterations)
    trace = record_trace(
        graph,
        kernel,
        num_parts=num_partitions,
        max_iterations=max_iterations,
        graph_name=ds.name,
        seed=seed,
        with_mirrors=False,
    )
    run_result = DisaggregatedNDPSimulator(config).replay(trace)
    table = TextTable(
        ["iteration", "measured offload", "estimated offload", "rel. error"],
        title=f"Ablation — cost-model fidelity, pagerank on {ds.name}",
    )
    errors = []
    # Priced as the dynamic policy prices it: with each iteration's
    # per-memory-node edge mass from the recorded profile.
    for profile, stats in zip(trace.profiles, run_result.iterations):
        est = estimate_movement(
            kernel,
            frontier_size=stats.frontier_size,
            edges_traversed=stats.edges_traversed,
            num_vertices=graph.num_vertices,
            num_parts=num_partitions,
            edges_per_part=profile.edges_per_part,
        )
        measured = stats.host_link_bytes
        rel = abs(est.offload_bytes - measured) / max(measured, 1)
        errors.append(rel)
        table.add_row(
            stats.iteration,
            format_bytes(measured),
            format_bytes(est.offload_bytes),
            rel,
        )
    result = ExperimentResult(
        experiment_id="ablation-costmodel",
        title="Movement cost model: estimated vs measured",
        tables=[table],
        data={"relative_errors": errors, "mean_error": float(np.mean(errors))},
    )
    result.notes.append(
        f"Mean relative error {float(np.mean(errors)):.1%} — the occupancy "
        "estimate over-counts on skewed graphs (hubs absorb many edges)."
    )
    return result


def run_compute_scaling(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_partitions: int = 8,
    hosts: Sequence[int] = (1, 2, 4, 8),
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Compute-pool scaling: growing the host count independently.

    The disaggregation promise is independent resource scaling.  Under NDP
    offload the switch routes each aggregated update straight to the host
    owning the destination, so movement is *flat* in the host count while
    iteration time drops with the parallel host links; the fetch deployment
    instead pays a growing host-to-host reshuffle of updates.  The host
    count changes only the accounting, so one recording serves every row.
    """
    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    trace = record_trace(
        graph,
        get_kernel("pagerank", max_iterations=max_iterations),
        num_parts=num_partitions,
        max_iterations=max_iterations,
        seed=seed,
        with_mirrors=False,
    )
    table = TextTable(
        [
            "hosts",
            "ndp bytes (MB)",
            "ndp time (ms)",
            "fetch bytes (MB)",
            "fetch time (ms)",
        ],
        title=(
            f"Ablation — compute-pool scaling, pagerank on {ds.name}, "
            f"{num_partitions} memory nodes"
        ),
    )
    rows = []
    for c in hosts:
        config = SystemConfig(
            num_compute_nodes=int(c), num_memory_nodes=num_partitions
        )
        ndp = DisaggregatedNDPSimulator(config).replay(trace)
        fetch = DisaggregatedSimulator(config).replay(trace)
        rows.append(
            {
                "hosts": int(c),
                "ndp_bytes": ndp.total_host_link_bytes,
                "ndp_seconds": ndp.total_seconds,
                "fetch_bytes": fetch.total_host_link_bytes,
                "fetch_seconds": fetch.total_seconds,
            }
        )
        table.add_row(
            int(c),
            ndp.total_host_link_bytes / 1e6,
            ndp.total_seconds * 1e3,
            fetch.total_host_link_bytes / 1e6,
            fetch.total_seconds * 1e3,
        )
    result = ExperimentResult(
        experiment_id="ablation-compute-scaling",
        title="Independent compute-pool scaling",
        tables=[table],
        data={"rows": rows},
    )
    result.notes.append(
        "Expected: NDP movement flat in the host count with falling time; "
        "fetch movement grows (cross-host update reshuffle)."
    )
    return result


def run_timing(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_nodes: int = 8,
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Modeled end-to-end time breakdown per architecture.

    The alpha-beta + device timing model behind Table II's overhead
    columns: traversal time scales with each tier's internal bandwidth,
    movement with interconnect bytes, sync with barrier width.
    """
    from repro.arch.compare import compare_architectures

    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    comparison = compare_architectures(
        graph,
        get_kernel("pagerank", max_iterations=max_iterations),
        config=SystemConfig(num_memory_nodes=num_nodes),
        max_iterations=max_iterations,
        graph_name=ds.name,
        seed=seed,
    )
    table = TextTable(
        [
            "architecture",
            "traverse (ms)",
            "movement (ms)",
            "apply (ms)",
            "sync (ms)",
            "total (ms)",
        ],
        title=f"Ablation — modeled time, pagerank on {ds.name}, {num_nodes} nodes",
    )
    data = {}
    for row in comparison.rows:
        run = row.run
        traverse = sum(s.traverse_seconds for s in run.iterations)
        apply_t = sum(s.apply_seconds for s in run.iterations)
        table.add_row(
            row.architecture,
            traverse * 1e3,
            run.total_movement_seconds * 1e3,
            apply_t * 1e3,
            run.total_sync_seconds * 1e3,
            run.total_seconds * 1e3,
        )
        data[row.architecture] = {
            "traverse_s": traverse,
            "movement_s": run.total_movement_seconds,
            "apply_s": apply_t,
            "sync_s": run.total_sync_seconds,
            "total_s": run.total_seconds,
        }
    result = ExperimentResult(
        experiment_id="ablation-timing",
        title="Modeled time breakdown per architecture",
        tables=[table],
        data=data,
    )
    result.notes.append(
        "Expected: NDP slashes traversal time (memory-capacity-proportional "
        "bandwidth); disaggregated-NDP also minimizes movement time; only "
        "the distributed architectures pay wide synchronization barriers."
    )
    return result


def run_scale(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_partitions: int = 8,
    max_iterations: int = 3,
    shifts: Sequence[int] = (-2, -1, 0, 1),
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Graph-size scaling of the offload benefit (companion to §IV.B).

    Section IV.B sweeps the partition count; this sweeps the *graph* size
    at fixed partitioning.  The fetch/offload byte ratio should stay
    roughly constant (both scale with the edge count), confirming that the
    Fig. 5 conclusions transfer across scales — the justification for
    reproducing trends on scaled-down stand-ins.
    """
    config = SystemConfig(num_memory_nodes=num_partitions)
    table = TextTable(
        ["scale shift", "vertices", "edges", "fetch (MB)", "offload (MB)", "ratio"],
        title=f"Ablation — offload benefit vs graph scale ({dataset})",
    )
    rows = []
    for shift in shifts:
        graph, ds = load_dataset_cached(
            dataset, tier=tier, seed=seed, scale_shift=int(shift)
        )
        trace = record_trace(
            graph,
            get_kernel("pagerank", max_iterations=max_iterations),
            num_parts=num_partitions,
            max_iterations=max_iterations,
            seed=seed,
            with_mirrors=False,
        )
        fetch = DisaggregatedSimulator(config).replay(trace)
        offload = DisaggregatedNDPSimulator(config).replay(trace)
        ratio = offload.total_host_link_bytes / max(fetch.total_host_link_bytes, 1)
        rows.append(
            {
                "shift": int(shift),
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "fetch_bytes": fetch.total_host_link_bytes,
                "offload_bytes": offload.total_host_link_bytes,
                "ratio": ratio,
            }
        )
        table.add_row(
            int(shift),
            graph.num_vertices,
            graph.num_edges,
            fetch.total_host_link_bytes / 1e6,
            offload.total_host_link_bytes / 1e6,
            ratio,
        )
    result = ExperimentResult(
        experiment_id="ablation-scale",
        title="Offload benefit across graph scales",
        tables=[table],
        data={"rows": rows},
    )
    result.notes.append(
        "Expected: the offload/fetch ratio is stable across a 8x size range "
        "— the trend conclusions transfer between reproduction scales."
    )
    return result


def _hub_bfs_profile(tier: str, dataset: str, num_partitions: int, seed: int):
    """Price the traversal directions of every iteration of one engine BFS
    from the hub, the last (which scans the deepest level and discovers
    nothing) included.

    The BFS is recorded once and replayed by the fetch and NDP
    deployments.
    """
    from repro.analysis import direction_profile

    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    bfs = get_kernel("bfs")
    trace = record_trace(
        graph,
        bfs,
        num_parts=num_partitions,
        source=int(graph.out_degrees.argmax()),
        graph_name=ds.name,
        seed=seed,
        with_mirrors=False,
    )
    config = SystemConfig(num_memory_nodes=num_partitions)
    fetch = DisaggregatedSimulator(config).replay(trace)
    offload = DisaggregatedNDPSimulator(config).replay(trace)
    profile = direction_profile(
        graph,
        bfs.result(trace.final_state),
        bfs,
        num_parts=num_partitions,
        push_offload_bytes=offload.per_iteration_bytes(),
        push_fetch_bytes=fetch.per_iteration_bytes(),
    )
    return ds, profile


def run_direction(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "twitter7-sim",
    num_partitions: int = 32,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Push vs pull traversal direction for BFS (a further §IV.D decision).

    Direction-optimizing BFS switches to pull when the frontier is dense;
    on disaggregated NDP the pull iterations ship one update per discovery
    instead of one partial per (destination, node) pair.
    """
    ds, profile = _hub_bfs_profile(tier, dataset, num_partitions, seed)
    table = TextTable(
        [
            "iteration",
            "frontier",
            "push-offload (KB)",
            "pull-offload (KB)",
            "push-fetch (KB)",
            "pull-fetch (KB)",
            "best",
        ],
        title=(
            f"Ablation — traversal direction, BFS on {ds.name}, "
            f"{num_partitions} partitions"
        ),
    )
    best = profile.best_mode_per_iteration()
    for t in range(profile.iterations):
        table.add_row(
            t,
            int(profile.frontier[t]),
            profile.push_offload[t] / 1e3,
            profile.pull_offload[t] / 1e3,
            profile.push_fetch[t] / 1e3,
            profile.pull_fetch[t] / 1e3,
            best[t],
        )
    totals = profile.totals()
    result = ExperimentResult(
        experiment_id="ablation-direction",
        title="Push vs pull traversal direction",
        tables=[table],
        data={"totals": totals, "best_modes": best},
    )
    result.notes.append(
        "Expected: pull-offload wins the dense mid-run iterations; the "
        "adaptive envelope beats every fixed (direction, placement) mode."
    )
    return result


def run_dobfs(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "twitter7-sim",
    num_partitions: int = 32,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Direction-optimized BFS on NDP (companion to ablation-direction).

    Every iteration of the run offloads in the cheaper direction: push
    costs what the NDP replay measured, pull its closed form.  Both
    directions discover the same vertices, so one engine BFS serves all
    three modes.
    """
    ds, profile = _hub_bfs_profile(tier, dataset, num_partitions, seed)
    directions = profile.offload_directions()
    auto = profile.auto_offload_bytes()
    table = TextTable(
        ["iteration", "direction", "frontier", "discovered", "bytes (KB)"],
        title=(
            f"Ablation — executed direction-optimized BFS on {ds.name}, "
            f"{num_partitions} partitions (auto mode)"
        ),
    )
    for t in range(profile.iterations):
        table.add_row(
            t,
            directions[t],
            int(profile.frontier[t]),
            int(profile.discovered[t]),
            auto[t] / 1e3,
        )
    totals = {
        "push": int(profile.push_offload.sum()),
        "pull": int(profile.pull_offload.sum()),
        "auto": int(auto.sum()),
    }
    totals_table = TextTable(["mode", "total movement (KB)"],
                             title="Whole-run totals per direction mode")
    for mode, total in totals.items():
        totals_table.add_row(mode, total / 1e3)
    result = ExperimentResult(
        experiment_id="ablation-dobfs",
        title="Executed direction-optimized BFS",
        tables=[table, totals_table],
        data={"totals": totals, "auto_directions": directions},
    )
    result.notes.append(
        "Expected: auto <= min(push, pull); the skewed graph's dense "
        "iterations run pull, the sparse head/tail run push."
    )
    return result


def run_energy(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_nodes: int = 8,
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Energy comparison across the four architectures (NDP energy story).

    Moving a byte across the interconnect costs ~50x a near-data ALU op;
    the architectures should rank by how much data they move, with NDP
    additionally shifting compute to cheaper near-data ops.
    """
    from repro.arch.compare import compare_architectures
    from repro.arch.energy import estimate_run_energy

    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    comparison = compare_architectures(
        graph,
        get_kernel("pagerank", max_iterations=max_iterations),
        config=SystemConfig(num_memory_nodes=num_nodes),
        max_iterations=max_iterations,
        graph_name=ds.name,
        seed=seed,
    )
    table = TextTable(
        ["architecture", "movement (mJ)", "compute (mJ)", "total (mJ)", "ndp op share"],
        title=f"Ablation — energy by architecture, pagerank on {ds.name}",
    )
    data = {}
    for row in comparison.rows:
        breakdown = estimate_run_energy(row.run)
        ops = breakdown.host_ops + breakdown.ndp_ops
        table.add_row(
            row.architecture,
            breakdown.movement_joules * 1e3,
            breakdown.compute_joules * 1e3,
            breakdown.total_joules * 1e3,
            breakdown.ndp_ops / ops if ops else 0.0,
        )
        data[row.architecture] = {
            "movement_j": breakdown.movement_joules,
            "compute_j": breakdown.compute_joules,
            "total_j": breakdown.total_joules,
            "ndp_ops": breakdown.ndp_ops,
            "host_ops": breakdown.host_ops,
        }
    result = ExperimentResult(
        experiment_id="ablation-energy",
        title="Energy by architecture",
        tables=[table],
        data=data,
    )
    result.notes.append(
        "Expected: disaggregated-NDP spends the least total energy — least "
        "interconnect movement and near-data compute."
    )
    return result


def run_switch_buffer(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_partitions: int = 32,
    buffer_bytes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 22, 1 << 26),
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """INC benefit as a function of the switch aggregation-table capacity."""
    graph, ds = load_dataset_cached(dataset, tier=tier, seed=seed)
    # The switch sees only the accounting: one recording serves the
    # baseline and every buffer size.
    trace = record_trace(
        graph,
        get_kernel("pagerank", max_iterations=max_iterations),
        num_parts=num_partitions,
        max_iterations=max_iterations,
        seed=seed,
        with_mirrors=False,
    )
    baseline = DisaggregatedNDPSimulator(
        SystemConfig(num_memory_nodes=num_partitions)
    ).replay(trace)
    table = TextTable(
        ["buffer", "slots", "movement", "vs no-INC"],
        title=f"Ablation — INC benefit vs switch buffer, pagerank on {ds.name}",
    )
    series = []
    for buf in buffer_bytes:
        config = SystemConfig(
            num_memory_nodes=num_partitions,
            enable_inc=True,
            switch_buffer_bytes=int(buf),
        )
        run_result = DisaggregatedNDPSimulator(config).replay(trace)
        ratio = run_result.total_host_link_bytes / max(
            baseline.total_host_link_bytes, 1
        )
        series.append(
            {
                "buffer_bytes": int(buf),
                "movement_bytes": run_result.total_host_link_bytes,
                "ratio_vs_no_inc": ratio,
            }
        )
        table.add_row(
            format_bytes(buf),
            config.switch_model().capacity_slots,
            format_bytes(run_result.total_host_link_bytes),
            ratio,
        )
    result = ExperimentResult(
        experiment_id="ablation-switch-buffer",
        title="In-network aggregation vs switch buffer capacity",
        tables=[table],
        data={
            "no_inc_bytes": baseline.total_host_link_bytes,
            "series": series,
        },
    )
    result.notes.append(
        "Expected: movement approaches the no-INC level as the table "
        "shrinks below the distinct-destination working set, and saturates "
        "at the perfect-aggregation level once everything fits."
    )
    return result
