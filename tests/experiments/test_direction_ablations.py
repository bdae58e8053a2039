"""Pins and execution counts of the two BFS-direction ablations.

``ablation-direction`` and ``ablation-dobfs`` read one engine BFS: both
render from the fetch and NDP replays of a single recorded trace.  Their
rendered text and canonical-JSON ``data`` at the tiny tier are pinned as
sha256 digests, and each must execute the kernel numerics once per BFS
iteration, inside the engine.  ``PYTHONPATH=src python
tests/experiments/test_direction_ablations.py`` prints the digests the
code produces now.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import DEFAULT_SEED
from repro.graph.datasets import load_dataset
from support import kernel_reference as reference

ABLATIONS = ("ablation-direction", "ablation-dobfs")

#: ``experiment id -> (sha256 of render(), sha256 of canonical data)``
PINNED = {
    "ablation-direction": (
        "b2f8c8051eaca5eae6f0bb9129dfa957227432ad25d3d222cae8da2cd364715f",
        "94db7956a57d8fd6c1a3440a5eba79e8bffaca7c9ff022f626521180e2e39715",
    ),
    "ablation-dobfs": (
        "41bfe590a2ac44ae7210fe89e50d892f7c10d2b1bf9a2d6cf1420963f8508a9d",
        "1a2138f1fdeea8e8946d90a3e0ed4df0b82bf2db8632cc5260ae88e40dd3f386",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(data) -> str:
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=lambda v: v.item()
    )


def digests(experiment_id: str):
    result = ALL_EXPERIMENTS[experiment_id](tier="tiny")
    return _sha(result.render()), _sha(_canonical(result.data))


@pytest.mark.parametrize("experiment_id", ABLATIONS)
def test_tiny_output_is_pinned(experiment_id):
    assert digests(experiment_id) == PINNED[experiment_id]


@pytest.mark.parametrize("experiment_id", ABLATIONS)
def test_one_engine_execution_per_bfs_iteration(experiment_id, numeric_executions):
    graph, _ = load_dataset("twitter7-sim", tier="tiny", seed=DEFAULT_SEED)
    levels = reference.bfs(graph, int(graph.out_degrees.argmax()))
    # Level-synchronous BFS runs one iteration per level, the last of
    # which discovers nothing.
    bfs_iterations = int(levels.max()) + 1
    ALL_EXPERIMENTS[experiment_id](tier="tiny")
    assert numeric_executions.count == bfs_iterations


if __name__ == "__main__":  # pragma: no cover
    for experiment_id in ABLATIONS:
        print(experiment_id, digests(experiment_id))
