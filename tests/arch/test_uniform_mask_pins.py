"""Pinned digests of every run whose offload mask is uniform.

A run is *uniform* when every iteration's executed mask is all-fetch or
all-offload: the passive pool, the distributed clusters and every global
offload decision.  Its accounting is pinned bit for bit.  Each run folds
every :class:`IterationStats` field, the ledger's bytes and messages per
``(phase, link)``, the counters and the result sha256 into one sha256;
the runs of one ``(architecture, kernel, fault)`` group fold into the
group digest stored in ``goldens/uniform_mask_digests.json``.

The matrix is the four architectures x the eight kernels x four fault
settings x five global policies (disaggregated-NDP only) x 1-2 hosts x
INC on/off.  Runs with a mixed iteration (some shards offload, the rest
fetch) and replication-1 rebuilds on the disaggregated deployments are
left out: their accounting is checked in closed form elsewhere
(``tests/runtime/test_per_part_policy.py``,
``tests/arch/test_fault_injection.py``).

The digests are the contract for any change to how a phase is charged:
they must stay as recorded.  ``PYTHONPATH=src python
tests/arch/test_uniform_mask_pins.py`` prints the digests the code
produces now.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.registry import get_architecture, list_architectures
from repro.arch.results import result_sha256
from repro.arch.trace import record_trace
from repro.faults import EveryKCheckpoint, FaultSchedule, FaultSpec
from repro.graph.generators import rmat
from repro.kernels.registry import get_kernel, list_kernels
from repro.runtime.config import SystemConfig
from repro.runtime.offload import get_policy

GOLDEN = Path(__file__).parent / "goldens" / "uniform_mask_digests.json"
NUM_PARTS = 4
MAX_ITERATIONS = 6
POLICIES = ("always", "never", "threshold", "dynamic", "oracle")
FAULTS = ("none", "crash-r2", "checkpoint-2", "standard")
DISAGGREGATED = ("disaggregated", "disaggregated-ndp")


def _fault_args(name: str) -> dict:
    if name == "crash-r2":
        return {
            "faults": FaultSchedule.single_crash(
                iteration=2, part=1, replication_factor=2
            )
        }
    if name == "checkpoint-2":
        return {"checkpoint": EveryKCheckpoint(2)}
    if name == "standard":
        return {"faults": FaultSpec.standard(seed=0, num_parts=NUM_PARTS, horizon=6)}
    return {}


def _run_digest(result) -> str:
    """sha256 over everything a uniform-mask run reports."""
    h = hashlib.sha256()
    for stats in result.iterations:
        fields = dataclasses.asdict(stats)
        fields["bytes_by_phase"] = sorted(fields["bytes_by_phase"].items())
        h.update(repr(sorted(fields.items())).encode())
    ledger = result.ledger
    h.update(
        repr(
            sorted(
                (
                    phase,
                    link.value,
                    nbytes,
                    ledger.messages_for(phase=phase, link=link),
                )
                for (phase, link), nbytes in ledger.items()
            )
        ).encode()
    )
    h.update(repr(sorted(result.counters.as_dict().items())).encode())
    h.update(result_sha256(result.result_property()).encode())
    return h.hexdigest()


def _uniform(architecture: str, fault: str, result) -> bool:
    """No mixed iteration and no replication-1 rebuild on the pool."""
    if result.counters.get("iterations-mixed"):
        return False
    rebuilt = "recovery-rebuild" in result.ledger.phases()
    return not (rebuilt and architecture in DISAGGREGATED)


def _group_digests() -> dict:
    graph = rmat(7, 8, seed=5, weighted=True)
    digests = {}
    for kernel_name in list_kernels():
        kernel = get_kernel(kernel_name)
        trace = record_trace(
            graph,
            kernel,
            num_parts=NUM_PARTS,
            source=0 if kernel.needs_source else None,
            max_iterations=MAX_ITERATIONS,
            graph_name="pins",
        )
        for architecture in list_architectures():
            policies = POLICIES if architecture == "disaggregated-ndp" else (None,)
            for fault in FAULTS:
                group = hashlib.sha256()
                for hosts in (1, 2):
                    for inc in (False, True):
                        config = SystemConfig(
                            num_compute_nodes=hosts,
                            num_memory_nodes=NUM_PARTS,
                            enable_inc=inc,
                        )
                        for policy in policies:
                            kwargs = {} if policy is None else {
                                "policy": get_policy(policy)
                            }
                            sim = get_architecture(architecture, config, **kwargs)
                            result = sim.replay(trace, **_fault_args(fault))
                            if not _uniform(architecture, fault, result):
                                continue
                            key = f"h{hosts}/inc{int(inc)}/{policy}"
                            group.update(key.encode())
                            group.update(_run_digest(result).encode())
                digests[f"{architecture}/{kernel_name}/{fault}"] = group.hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests():
    return _group_digests()


def test_uniform_mask_runs_match_pinned_digests(digests):
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(digests) == sorted(pinned)
    drifted = sorted(key for key, value in pinned.items() if digests[key] != value)
    assert not drifted, f"uniform-mask accounting changed for {drifted}"


if __name__ == "__main__":
    print(json.dumps(_group_digests(), indent=1, sort_keys=True))
