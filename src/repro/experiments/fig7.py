"""Fig. 7 — per-iteration data movement trends with and without NDP.

Three workload panels, as in the paper:

* (a) Connected Components on Twitter7, 32 partitions;
* (b) SSSP on com-LiveJournal, 32 partitions;
* (c) PageRank on UK-2005, 80 partitions.

For frontier-driven kernels the winner flips mid-run: early huge frontiers
favor offload (updates << edges), late sparse frontiers favor fetch —
the paper's motivation for per-iteration dynamic decisions (Section IV.D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.cache import load_dataset_cached
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.utils.tables import TextTable


@dataclass(frozen=True)
class PanelSpec:
    """One Fig. 7 panel: (graph, kernel, partition count)."""

    panel: str
    dataset: str
    kernel: str
    partitions: int
    max_iterations: int = 30


PANELS = (
    PanelSpec("a", "twitter7-sim", "cc", 32),
    PanelSpec("b", "livejournal-sim", "sssp", 32),
    PanelSpec("c", "uk2005-sim", "pagerank", 80, max_iterations=15),
)


def run(
    *,
    tier: str = DEFAULT_TIER,
    panels: Optional[tuple] = None,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Trace per-iteration movement for each panel, NDP vs no NDP."""
    chosen = panels or PANELS
    tables = []
    charts: List[str] = []
    data: Dict[str, Dict[str, List[float]]] = {}
    for spec in chosen:
        graph, ds = load_dataset_cached(spec.dataset, tier=tier, seed=seed)
        source = int(graph.out_degrees.argmax())
        config = SystemConfig(num_memory_nodes=spec.partitions)
        kernel = get_kernel(spec.kernel)
        trace = record_trace(
            graph,
            kernel,
            num_parts=spec.partitions,
            source=source if kernel.needs_source else None,
            max_iterations=spec.max_iterations,
            graph_name=ds.name,
            seed=seed,
            with_mirrors=False,
        )
        fetch = DisaggregatedSimulator(config).replay(trace)
        offload = DisaggregatedNDPSimulator(config).replay(trace)
        fetch_bytes = fetch.per_iteration_bytes()
        offload_bytes = offload.per_iteration_bytes()
        frontier = fetch.per_iteration_frontier()
        iters = max(fetch_bytes.size, offload_bytes.size)

        table = TextTable(
            ["iteration", "frontier", "no NDP (KB)", "NDP (KB)", "winner"],
            title=(
                f"Fig. 7({spec.panel}) — {spec.kernel} on {ds.name}, "
                f"{spec.partitions} partitions"
            ),
        )
        for i in range(iters):
            fb = float(fetch_bytes[i]) if i < fetch_bytes.size else 0.0
            ob = float(offload_bytes[i]) if i < offload_bytes.size else 0.0
            table.add_row(
                i,
                int(frontier[i]) if i < frontier.size else 0,
                fb / 1e3,
                ob / 1e3,
                "ndp" if ob < fb else "fetch",
            )
        tables.append(table)
        if iters >= 2:
            from repro.utils.ascii_chart import line_chart

            tables_chart = line_chart(
                {
                    "no-NDP": (fetch_bytes / 1e3).tolist(),
                    "NDP": (offload_bytes / 1e3).tolist(),
                },
                title=f"Fig. 7({spec.panel}) movement (KB) per iteration",
                x_labels=list(range(iters)),
                height=12,
            )
            charts.append(tables_chart)
        data[spec.panel] = {
            "dataset": ds.name,
            "kernel": spec.kernel,
            "partitions": spec.partitions,
            "fetch_bytes": fetch_bytes.tolist(),
            "offload_bytes": offload_bytes.tolist(),
            "frontier": frontier.tolist(),
            "winner_flips": _count_flips(fetch_bytes, offload_bytes),
        }

    result = ExperimentResult(
        experiment_id="fig7",
        title="Per-iteration data movement, NDP vs no NDP",
        tables=tables,
        charts=charts,
        data=data,
    )
    result.notes.append(
        "Expected shape (paper): the per-iteration winner is not constant "
        "within a run for the frontier-driven kernels, motivating dynamic "
        "offload decisions."
    )
    return result


def _count_flips(fetch_bytes: np.ndarray, offload_bytes: np.ndarray) -> int:
    """How many times the cheaper alternative changes across iterations."""
    n = min(fetch_bytes.size, offload_bytes.size)
    if n == 0:
        return 0
    winner = offload_bytes[:n] < fetch_bytes[:n]
    return int(np.count_nonzero(winner[1:] != winner[:-1]))
