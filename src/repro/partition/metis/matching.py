"""Heavy-edge matching (HEM) — the coarsening driver.

Visiting vertices in random order, each unmatched vertex pairs with its
unmatched neighbor of maximum edge weight.  Contracting heavy edges first
keeps most of the cut weight *inside* coarse vertices, which is what makes
the multilevel scheme converge to good cuts.
"""

from __future__ import annotations

import numpy as np

from repro.partition.metis.wgraph import WorkGraph
from repro.utils.rng import SeedLike, ensure_rng


def heavy_edge_matching(wg: WorkGraph, *, seed: SeedLike = None) -> np.ndarray:
    """Return ``match[u]`` = matched partner of ``u`` (or ``u`` if unmatched).

    The result is a valid matching: ``match[match[u]] == u`` for all ``u``.
    """
    rng = ensure_rng(seed)
    n = wg.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    for u in order:
        if match[u] >= 0:
            continue
        a, b = indptr[u], indptr[u + 1]
        nbrs = indices[a:b]
        if nbrs.size:
            free = match[nbrs] < 0
            if free.any():
                cand = nbrs[free]
                w = eweights[a:b][free]
                # Max weight; ties broken by smaller vertex weight so coarse
                # vertices stay balanced.
                best = cand[np.lexsort((wg.vweights[cand], -w))[0]]
                match[u] = best
                match[best] = u
                continue
        match[u] = u
    return match
