"""Seeded synthetic stand-ins for the paper's evaluation graphs.

The paper evaluates on SuiteSparse graphs we cannot redistribute or fit in a
laptop-scale run: Twitter7 (41M vertices, 1.4B edges), UK-2005 (39M, 936M),
com-LiveJournal (3M, 69M) and wiki-Talk (2.4M, 5M).  Each stand-in is a
seeded generator matched on the properties that drive the paper's results:

* **average degree** — decides whether fetching edge lists (8 B/edge) beats
  shipping per-vertex updates (16 B each), the Fig. 5 crossover;
* **degree skew** — drives mirror counts and partial-update volume;
* **directedness** — all four paper graphs are directed.

``wikitalk_sim`` is the critical case: its average out-degree of ~2 makes
NDP offload *more* expensive than edge fetch for PageRank, the anomaly the
paper highlights in Fig. 5.  EXPERIMENTS.md records paper-scale vs
reproduction-scale counts for every graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.utils.rng import SeedLike, ensure_rng

#: Size tiers: log2 shift applied to the stand-in vertex counts.  ``tiny`` is
#: for unit tests, ``small`` the default for examples/benches, ``medium`` for
#: longer sweeps, ``large`` for paper-scale runs (pair with a streaming
#: ``--memory-budget`` to keep the engine's edge transients bounded).
TIER_SHIFT = {"tiny": -4, "small": 0, "medium": 2, "large": 4}


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one paper graph and its synthetic stand-in."""

    name: str
    paper_name: str
    paper_vertices: int
    paper_edges: int
    description: str
    generator: Callable[[int, SeedLike], CSRGraph] = field(repr=False)
    base_scale: int = 14


def _community_rmat(
    scale: int,
    edge_factor: int,
    community_scale: int,
    internal_frac: float,
    seed: SeedLike,
    *,
    a: float = 0.55,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """RMAT with planted communities (contiguous id blocks).

    ``internal_frac`` of the edges are drawn by an RMAT process *inside* a
    community of ``2**(scale - community_scale)`` vertices; the rest are
    global RMAT edges.  Real social/web graphs (LiveJournal, UK-2005) have
    exactly this two-level structure — heavy-tailed degrees plus strong
    communities — which is what makes METIS-style partitioning effective on
    them (paper Fig. 6).
    """
    rng = ensure_rng(seed)
    n = 1 << scale
    ncomm = 1 << community_scale
    comm_size = n >> community_scale
    m_total = edge_factor * n
    m_internal = int(internal_frac * m_total)
    m_cross = m_total - m_internal

    # Internal edges: one RMAT draw at community scale, then scatter each
    # edge into a uniformly chosen community by adding its base id.  The
    # inner pool is drawn 2x denser than needed so that dedup after
    # scattering does not starve per-community degree.
    inner_ef = max(1, int(np.ceil(2.0 * m_internal / n)))
    inner = rmat(
        scale - community_scale,
        inner_ef,
        a,
        b,
        c,
        seed=rng,
        dedup=False,
    )
    isrc, idst = inner.edge_array()
    reps = int(np.ceil(m_internal / max(isrc.size, 1)))
    isrc = np.tile(isrc, reps)[:m_internal]
    idst = np.tile(idst, reps)[:m_internal]
    bases = rng.integers(0, ncomm, m_internal, dtype=np.int64) * comm_size
    isrc = isrc + bases
    idst = idst + bases

    cross = rmat(scale, max(1, m_cross // n), a, b, c, seed=rng, dedup=False)
    csrc, cdst = cross.edge_array()
    csrc, cdst = csrc[:m_cross], cdst[:m_cross]

    src = np.concatenate([isrc, csrc])
    dst = np.concatenate([idst, cdst])
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % n
    return CSRGraph.from_edges(src, dst, n, dedup=True)


def _twitter7(scale: int, seed: SeedLike) -> CSRGraph:
    # Social graph: strong skew (celebrities), avg degree ~34, weak
    # community structure — follower edges cross communities freely.
    # Edge factor is set above the paper's average degree to compensate
    # for dedup collisions at reproduction scale (post-dedup ~34).
    return rmat(scale, edge_factor=44, a=0.57, b=0.19, c=0.19, seed=seed)


def _uk2005(scale: int, seed: SeedLike) -> CSRGraph:
    # Web crawl: strong host-level locality (communities contiguous in
    # crawl order), moderate skew, avg degree ~24 (post-dedup).
    return _community_rmat(
        scale, 34, community_scale=max(2, scale - 8), internal_frac=0.9,
        seed=seed, a=0.45, b=0.15, c=0.15,
    )


def _livejournal(scale: int, seed: SeedLike) -> CSRGraph:
    # Social network with pronounced communities, avg degree ~23 per the
    # paper's counts (3M V, 69M E); post-dedup ~22 at reproduction scale.
    return _community_rmat(
        scale, 44, community_scale=max(2, scale - 7), internal_frac=0.8, seed=seed
    )


def _wikitalk(scale: int, seed: SeedLike) -> CSRGraph:
    """Sparse, extremely skewed communication graph (avg out-degree ~2).

    Out-degrees are Zipf-distributed (most users post on 0-3 talk pages, a
    few admins on thousands); destinations are drawn with preferential skew
    so in-degree is heavy-tailed too.
    """
    rng = ensure_rng(seed)
    n = 1 << scale
    # Zipf(2.2) lands near wiki-Talk's 2.08 average after dedup.
    out_deg = rng.zipf(2.2, size=n) - 1  # shift so degree-0 vertices exist
    out_deg = np.minimum(out_deg, n // 8)
    m = int(out_deg.sum())
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    # Preferential destinations: square a uniform draw to bias low ids, then
    # permute ids so the hubs are spread across the id space.
    perm = rng.permutation(n)
    dst = perm[np.minimum((rng.random(m) ** 2 * n).astype(np.int64), n - 1)]
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % n
    return CSRGraph.from_edges(src, dst, n, dedup=True)


_REGISTRY: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> DatasetSpec:
    _REGISTRY[spec.name] = spec
    return spec


TWITTER7_SIM = _register(
    DatasetSpec(
        name="twitter7-sim",
        paper_name="Twitter7",
        paper_vertices=41_000_000,
        paper_edges=1_400_000_000,
        description="RMAT stand-in for the Twitter7 follower graph "
        "(heavy skew, avg degree ~34).",
        generator=_twitter7,
        base_scale=14,
    )
)

UK2005_SIM = _register(
    DatasetSpec(
        name="uk2005-sim",
        paper_name="UK-2005",
        paper_vertices=39_000_000,
        paper_edges=936_000_000,
        description="RMAT stand-in for the UK-2005 web crawl "
        "(moderate skew, avg degree ~24).",
        generator=_uk2005,
        base_scale=14,
    )
)

LIVEJOURNAL_SIM = _register(
    DatasetSpec(
        name="livejournal-sim",
        paper_name="com-LiveJournal",
        paper_vertices=3_000_000,
        paper_edges=69_000_000,
        description="RMAT stand-in for com-LiveJournal "
        "(social graph, avg degree ~23).",
        generator=_livejournal,
        base_scale=12,
    )
)

WIKITALK_SIM = _register(
    DatasetSpec(
        name="wikitalk-sim",
        paper_name="wiki-Talk",
        paper_vertices=2_400_000,
        paper_edges=5_000_000,
        description="Zipf stand-in for wiki-Talk: avg out-degree ~2, extreme "
        "skew — the graph where NDP offload loses (Fig. 5).",
        generator=_wikitalk,
        base_scale=13,
    )
)


def list_datasets() -> Tuple[str, ...]:
    """Names of all registered paper-graph stand-ins."""
    return tuple(sorted(_REGISTRY))


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown dataset {name!r}; available: {', '.join(list_datasets())}"
        ) from None


def load_dataset(
    name: str, *, tier: str = "small", seed: SeedLike = 7, scale_shift: int = 0
) -> Tuple[CSRGraph, DatasetSpec]:
    """Generate the stand-in graph for paper dataset ``name``.

    Parameters
    ----------
    tier:
        ``tiny`` / ``small`` / ``medium`` size tier (log2 shifts of -4/0/+2).
    seed:
        generator seed (default fixed so experiments are reproducible).
    scale_shift:
        extra log2 shift applied on top of the tier.

    Returns
    -------
    ``(graph, spec)`` — the generated graph and the dataset metadata.
    """
    spec = get_spec(name)
    if tier not in TIER_SHIFT:
        raise GraphError(
            f"unknown tier {tier!r}; expected one of {sorted(TIER_SHIFT)}"
        )
    scale = spec.base_scale + TIER_SHIFT[tier] + scale_shift
    if scale < 4:
        raise GraphError(
            f"dataset {name!r} at tier {tier!r} (scale {scale}) is too small"
        )
    graph = spec.generator(scale, seed)
    return graph, spec
