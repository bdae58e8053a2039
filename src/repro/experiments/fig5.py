"""Fig. 5 — impact of offloading graph traversals on data movement.

PageRank over several graphs on the disaggregated architecture, with and
without NDP offload, at a fixed partition count.  The paper's headline
observation: offload slashes movement on dense graphs but *increases* it on
wiki-Talk, whose ~2 average out-degree makes fetching 8 B edges cheaper
than shipping 16 B updates.
"""

from __future__ import annotations

from typing import Dict

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.kernels.pagerank import PageRank
from repro.runtime.config import SystemConfig
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes

DATASETS = ("livejournal-sim", "twitter7-sim", "uk2005-sim", "wikitalk-sim")
NUM_PARTITIONS = 8


def run(
    *,
    tier: str = DEFAULT_TIER,
    max_iterations: int = 5,
    num_partitions: int = NUM_PARTITIONS,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Measure offload vs fetch movement for PageRank on every graph."""
    config = SystemConfig(num_memory_nodes=num_partitions)
    table = TextTable(
        ["graph", "no NDP (fetch)", "NDP offload", "offload/fetch", "winner"],
        title=(
            "Fig. 5 reproduction — PageRank data movement, "
            f"{num_partitions} partitions, {max_iterations} iterations"
        ),
    )
    series: Dict[str, Dict[str, float]] = {}
    for dataset in DATASETS:
        graph, spec = load_dataset_cached(dataset, tier=tier, seed=seed)
        trace = record_trace(
            graph,
            PageRank(max_iterations=max_iterations),
            num_parts=num_partitions,
            max_iterations=max_iterations,
            graph_name=spec.name,
            with_mirrors=False,
        )
        fetch = DisaggregatedSimulator(config).replay(trace)
        offload = DisaggregatedNDPSimulator(config).replay(trace)
        ratio = offload.total_host_link_bytes / max(fetch.total_host_link_bytes, 1)
        series[dataset] = {
            "fetch_bytes": fetch.total_host_link_bytes,
            "offload_bytes": offload.total_host_link_bytes,
            "ratio": ratio,
            "avg_out_degree": graph.num_edges / graph.num_vertices,
        }
        table.add_row(
            dataset,
            format_bytes(fetch.total_host_link_bytes),
            format_bytes(offload.total_host_link_bytes),
            ratio,
            "offload" if ratio < 1.0 else "fetch",
        )
    from repro.utils.ascii_chart import bar_chart

    chart = bar_chart(
        list(series),
        [series[name]["ratio"] for name in series],
        title="offload/fetch movement ratio (| marks break-even at 1.0)",
        reference=1.0,
    )
    result = ExperimentResult(
        experiment_id="fig5",
        title="Offloading traversals: data movement with vs without NDP",
        tables=[table],
        charts=[chart],
        data={"series": series},
    )
    result.notes.append(
        "Expected shape (paper): offload wins on the dense graphs, loses on "
        "the wiki-Talk stand-in (avg out-degree ~2, 16 B updates vs 8 B edges)."
    )
    return result
