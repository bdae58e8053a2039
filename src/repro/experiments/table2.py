"""Table II — architecture comparison on measured overheads.

Runs PageRank through all four architecture simulators and derives the
paper's qualitative cells (communication / synchronization overhead,
resource utilization) from measured bytes, barrier participants, and the
provisioning model at paper-scale demand.
"""

from __future__ import annotations

from repro.arch.compare import compare_architectures
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.kernels.pagerank import PageRank
from repro.runtime.config import SystemConfig

#: Paper-scale projection knobs: inflate the stand-in workload's demand so
#: the memory pool needs ~TARGET_MEMORY_NODES nodes (the paper's
#: trillion-edge regime, where provisioning is not quantized to one node),
#: and relax the per-iteration target the way a memory-bound deployment
#: would (Fig. 4's memory-heavy corner).
TARGET_MEMORY_NODES = 20
TARGET_ITERATION_SECONDS = 10.0

#: The paper's qualitative cells (Table II), for comparison in the bench.
PAPER_LABELS = {
    "distributed": ("High", "High", "Skewed"),
    "distributed-ndp": ("High", "High", "Skewed"),
    "disaggregated": ("High", "Low", "Balanced"),
    "disaggregated-ndp": ("Low", "Low", "Balanced"),
}


def run(
    *,
    tier: str = DEFAULT_TIER,
    dataset: str = "livejournal-sim",
    num_nodes: int = 8,
    max_iterations: int = 5,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Regenerate Table II on the given dataset stand-in."""
    graph, spec = load_dataset_cached(dataset, tier=tier, seed=seed)
    config = SystemConfig(num_compute_nodes=1, num_memory_nodes=num_nodes)
    kernel = PageRank(max_iterations=max_iterations)
    # Project the stand-in workload up to a TARGET_MEMORY_NODES-node pool.
    from repro.runtime.provision import workload_demands

    demand = workload_demands(graph, kernel)
    memory_node = config.ndp_device or config.host_device
    demand_scale = (
        TARGET_MEMORY_NODES * memory_node.memory_capacity_bytes / demand.memory_bytes
    )
    comparison = compare_architectures(
        graph,
        kernel,
        config=config,
        max_iterations=max_iterations,
        graph_name=spec.name,
        demand_scale=demand_scale,
        target_iteration_seconds=TARGET_ITERATION_SECONDS,
        seed=seed,
    )
    measured = comparison.labels()
    result = ExperimentResult(
        experiment_id="table2",
        title="Previous works vs disaggregated NDP (qualitative comparison)",
        tables=[comparison.as_table()],
        data={
            "labels": measured,
            "paper_labels": PAPER_LABELS,
            "bytes": {
                r.architecture: r.total_host_link_bytes for r in comparison.rows
            },
            "sync_participants": {
                r.architecture: r.sync_participants for r in comparison.rows
            },
        },
    )
    matches = sum(
        measured.get(arch) == labels for arch, labels in PAPER_LABELS.items()
    )
    result.notes.append(
        f"{matches}/4 rows match the paper's qualitative cells exactly "
        f"(measured on {spec.name}, {num_nodes} nodes)."
    )
    return result
