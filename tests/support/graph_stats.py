"""Graph statistics: degree summaries and skew.

No simulator or policy reads these.  The tests use them to check that the
dataset stand-ins keep the degree and skew properties EXPERIMENTS.md
records.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of one graph."""

    num_vertices: int
    num_edges: int
    avg_out_degree: float
    max_out_degree: int
    max_in_degree: int
    out_degree_p99: float
    gini_out_degree: float
    isolated_vertices: int
    self_loops: int

    @property
    def skew_ratio(self) -> float:
        """Max out-degree over the average — a quick hub-iness measure."""
        if self.avg_out_degree == 0:
            return 0.0
        return self.max_out_degree / self.avg_out_degree


def compute_stats(graph: CSRGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph`` (single vectorized pass)."""
    out_deg = graph.out_degrees
    in_deg = graph.in_degrees
    n, m = graph.num_vertices, graph.num_edges
    src, dst = graph.edge_array()
    self_loops = int(np.count_nonzero(src == dst))
    isolated = int(np.count_nonzero((out_deg == 0) & (in_deg == 0)))
    return GraphStats(
        num_vertices=n,
        num_edges=m,
        avg_out_degree=float(m / n) if n else 0.0,
        max_out_degree=int(out_deg.max()) if n else 0,
        max_in_degree=int(in_deg.max()) if n else 0,
        out_degree_p99=float(np.percentile(out_deg, 99)) if n else 0.0,
        gini_out_degree=gini(out_deg) if n else 0.0,
        isolated_vertices=isolated,
        self_loops=self_loops,
    )


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = uniform, →1 = skewed)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return 0.0
    if np.any(values < 0):
        raise ValueError("gini requires non-negative values")
    total = values.sum()
    if total == 0:
        return 0.0
    n = values.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * np.dot(ranks, values) / (n * total)) - (n + 1) / n)
