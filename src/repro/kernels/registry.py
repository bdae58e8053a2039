"""Name-based kernel lookup for experiment configs and the CLI."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import KernelError
from repro.kernels.base import VertexProgram
from repro.kernels.bfs import BFS
from repro.kernels.cc import ConnectedComponents
from repro.kernels.degree import DegreeCentrality
from repro.kernels.kcore import KCore
from repro.kernels.pagerank import PageRank
from repro.kernels.ppr import PersonalizedPageRank
from repro.kernels.sssp import SSSP
from repro.kernels.widest_path import WidestPath

_REGISTRY: Dict[str, Callable[..., VertexProgram]] = {
    "pagerank": PageRank,
    "bfs": BFS,
    "sssp": SSSP,
    "cc": ConnectedComponents,
    "degree": DegreeCentrality,
    "kcore": KCore,
    "ppr": PersonalizedPageRank,
    "widest-path": WidestPath,
}

#: The four kernels the paper evaluates (Fig. 4).
PAPER_KERNELS: Tuple[str, ...] = ("pagerank", "cc", "sssp", "bfs")


def list_kernels() -> Tuple[str, ...]:
    """Registered kernel names."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str, **kwargs: object) -> VertexProgram:
    """Instantiate a kernel by registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; available: {', '.join(list_kernels())}"
        ) from None
    return factory(**kwargs)
