"""Shared fixtures for the repro test suite.

Everything is seeded; the tiny tier keeps CI fast while preserving the
structural properties (skew, communities, sparsity) the assertions rely on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    path_graph,
    ring_graph,
    rmat,
    star_graph,
)
from repro.runtime.config import SystemConfig


@pytest.fixture(scope="session")
def tiny_rmat() -> CSRGraph:
    """A small skewed graph (~512 vertices) for simulator tests."""
    return rmat(9, 8, seed=11)


@pytest.fixture(scope="session")
def tiny_er() -> CSRGraph:
    """A small uniform random graph."""
    return erdos_renyi(300, 1800, seed=5)


@pytest.fixture(scope="session")
def weighted_er() -> CSRGraph:
    """A small weighted random graph for SSSP tests."""
    return erdos_renyi(200, 1400, seed=9, weighted=True)


@pytest.fixture(scope="session")
def grid_8x8() -> CSRGraph:
    return grid_graph(8, 8)


@pytest.fixture(scope="session")
def path10() -> CSRGraph:
    return path_graph(10, directed=True)


@pytest.fixture(scope="session")
def ring12() -> CSRGraph:
    return ring_graph(12)


@pytest.fixture(scope="session")
def star20() -> CSRGraph:
    return star_graph(20)


@pytest.fixture(scope="session")
def lj_tiny() -> CSRGraph:
    graph, _ = load_dataset("livejournal-sim", tier="tiny", seed=7)
    return graph


@pytest.fixture(scope="session")
def twitter_tiny() -> CSRGraph:
    graph, _ = load_dataset("twitter7-sim", tier="tiny", seed=7)
    return graph


@pytest.fixture(scope="session")
def wikitalk_tiny() -> CSRGraph:
    graph, _ = load_dataset("wikitalk-sim", tier="tiny", seed=7)
    return graph


@pytest.fixture
def config4() -> SystemConfig:
    """4 memory nodes, 1 host — the workhorse simulator config."""
    return SystemConfig(num_compute_nodes=1, num_memory_nodes=4)


@pytest.fixture
def config8() -> SystemConfig:
    return SystemConfig(num_compute_nodes=1, num_memory_nodes=8)


@pytest.fixture(scope="session")
def two_triangles() -> CSRGraph:
    """Two disjoint directed triangles — tiny, fully analyzable by hand."""
    src = np.array([0, 1, 2, 3, 4, 5])
    dst = np.array([1, 2, 0, 4, 5, 3])
    return CSRGraph.from_edges(src, dst, 6)


@pytest.fixture
def numeric_executions(monkeypatch):
    """Count the engine's numeric executions (traverse, reduce, apply).

    Wraps ``repro.arch.engine.apply_numeric``, which runs once per executed
    iteration however many deployments account it; ``.count`` starts at 0.
    """
    from repro.arch import engine

    counter = SimpleNamespace(count=0)
    apply_numeric = engine.apply_numeric

    def counting(*args, **kwargs):
        counter.count += 1
        return apply_numeric(*args, **kwargs)

    monkeypatch.setattr(engine, "apply_numeric", counting)
    return counter
