"""Fig. 4 — varying compute-memory resource requirements.

The paper plots the compute and memory demands of four kernels (PR, CC,
SSSP, BFS) on two graphs (uk-2005, twitter7) and highlights (i) workloads
with similar compute but different memory needs (orange box) and (ii)
similar memory but different compute needs (purple box).  We measure both
axes from actual simulator runs: compute = total traverse+apply operations
across the run, memory = graph + property footprint.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.kernels.registry import PAPER_KERNELS, get_kernel
from repro.runtime.config import SystemConfig
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes, format_count

DATASETS = ("twitter7-sim", "uk2005-sim")


def run(
    *,
    tier: str = DEFAULT_TIER,
    max_iterations: int = 10,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Measure the Fig. 4 scatter points."""
    points: Dict[Tuple[str, str], Dict[str, float]] = {}
    config = SystemConfig(num_memory_nodes=4)
    table = TextTable(
        ["graph", "kernel", "compute (ops)", "memory (bytes)", "ops/byte"],
        title="Fig. 4 reproduction — compute vs memory requirements",
    )
    for dataset in DATASETS:
        graph, spec = load_dataset_cached(dataset, tier=tier, seed=seed)
        source = _best_source(graph)
        for kernel_name in PAPER_KERNELS:
            kernel = get_kernel(kernel_name)
            sim = DisaggregatedSimulator(config)
            run_result = sim.run(
                graph,
                kernel,
                source=source if kernel.needs_source else None,
                max_iterations=max_iterations,
                graph_name=spec.name,
                seed=seed,
            )
            compute_ops = sum(
                s.traverse_ops + s.apply_ops for s in run_result.iterations
            )
            memory_bytes = (
                graph.memory_footprint_bytes()
                + graph.num_vertices * kernel.prop_push_bytes
            )
            points[(dataset, kernel_name)] = {
                "compute_ops": compute_ops,
                "memory_bytes": float(memory_bytes),
                "iterations": run_result.num_iterations,
            }
            table.add_row(
                dataset,
                kernel_name,
                format_count(compute_ops),
                format_bytes(memory_bytes),
                compute_ops / memory_bytes if memory_bytes else 0.0,
            )

    result = ExperimentResult(
        experiment_id="fig4",
        title="Compute vs memory requirements per (graph, kernel)",
        tables=[table],
        data={"points": {f"{g}/{k}": v for (g, k), v in points.items()}},
    )
    result.notes.append(
        "Orange-box analogue: kernels on the same graph share the memory "
        "axis but spread on compute (PR's FP work vs BFS's flag updates). "
        "Purple-box analogue: the same kernel on the two graphs shares the "
        "ops/byte intensity but spreads on memory."
    )
    return result


def _best_source(graph) -> int:
    """A high-out-degree source so rooted kernels reach most of the graph."""
    return int(graph.out_degrees.argmax())
