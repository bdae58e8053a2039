"""Execution counts of the two offload-policy ablations.

``ablation-dynamic`` and ``ablation-per-part`` compare policies on the
same workloads, and a policy moves work placement, never numerics: each
workload is recorded once and every policy replays the recording.  So
each must execute the kernel numerics once per iteration of each of its
workloads, inside the engine.
"""

from __future__ import annotations

import pytest

from repro.arch.trace import record_trace
from repro.experiments import ALL_EXPERIMENTS, ablations
from repro.experiments.common import DEFAULT_SEED
from repro.graph.datasets import load_dataset
from repro.kernels.registry import get_kernel
from repro.partition.range_chunk import RangePartitioner


def _dynamic_iterations() -> int:
    total = 0
    for kernel_name, dataset, parts in ablations.WORKLOADS:
        graph, _ = load_dataset(dataset, tier="tiny", seed=DEFAULT_SEED)
        kernel = get_kernel(kernel_name)
        total += record_trace(
            graph,
            kernel,
            num_parts=parts,
            source=int(graph.out_degrees.argmax()) if kernel.needs_source else None,
            max_iterations=30,
            seed=DEFAULT_SEED,
        ).num_iterations
    return total


def _per_part_iterations() -> int:
    graph = ablations._mixed_density_graph(9, DEFAULT_SEED)
    return record_trace(
        graph,
        get_kernel("pagerank", max_iterations=5),
        assignment=RangePartitioner().partition(graph, 8),
        max_iterations=5,
        seed=DEFAULT_SEED,
    ).num_iterations


#: ``experiment id -> iterations summed over its workloads``
ITERATIONS = {
    "ablation-dynamic": _dynamic_iterations,
    "ablation-per-part": _per_part_iterations,
}


@pytest.mark.parametrize("experiment_id", sorted(ITERATIONS))
def test_one_engine_execution_per_workload_iteration(
    experiment_id, numeric_executions
):
    expected = ITERATIONS[experiment_id]()
    numeric_executions.count = 0
    ALL_EXPERIMENTS[experiment_id](tier="tiny")
    assert numeric_executions.count == expected
