"""Test-side weak components.

Plain NumPy and independent of the engine; the connected-components
oracle and the graph tests compare against it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def weak_component_labels(graph: CSRGraph) -> np.ndarray:
    """Weakly-connected-component label per vertex via pointer jumping.

    Uses the Shiloach–Vishkin style hook-and-compress loop on the
    symmetrized edge set; labels are the minimum vertex id in the component.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0:
        return labels
    src, dst = graph.edge_array()
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    while True:
        # Hook: point each vertex's label at the smallest neighbor label.
        cand = labels[d]
        new_labels = labels.copy()
        np.minimum.at(new_labels, s, cand)
        changed = new_labels < labels
        if not changed.any():
            break
        labels = new_labels
        # Compress: pointer jumping until fixpoint.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    return labels
