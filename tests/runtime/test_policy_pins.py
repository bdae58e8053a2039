"""Pinned digests of every offload policy's disaggregated-NDP accounting.

Each recorded trace is replayed under every registered policy, plus
``per-part(oracle=True)`` and the ``calibrate=False`` variants of the
calibrating policies.  A replay folds every :class:`IterationStats`
field, the ledger's bytes and messages per ``(phase, link)``, the
counters and the decision record each iteration span carries into one
sha256; the replays of one ``(dataset, kernel, partitioner)`` trace fold
into the digest pinned in :data:`PINNED`.

The traces cross livejournal-sim and twitter7-sim at the tiny tier with
the eight kernels and hash and range partitioning; each is replayed with
and without faults and with and without in-network aggregation.  Unlike
``tests/arch/test_uniform_mask_pins.py`` nothing is filtered out: the
per-part and adaptive replays include iterations whose mask is mixed
(some shards offload, the rest fetch), so those placements and the
calibration state behind them are pinned too.

The digests are the contract for any change to how a policy decides or
learns: they must stay as recorded.  ``PYTHONPATH=src python
tests/runtime/test_policy_pins.py`` prints the digests the code produces
now.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.faults import FaultSpec
from repro.graph.datasets import load_dataset
from repro.kernels.registry import get_kernel, list_kernels
from repro.obs.span import CATEGORY_ITERATION, Tracer, use_tracer
from repro.partition.random_hash import HashPartitioner
from repro.partition.range_chunk import RangePartitioner
from repro.runtime.config import SystemConfig
from repro.runtime.offload import get_policy, list_policies

DATASETS = ("livejournal-sim", "twitter7-sim")
PARTITIONERS = {"hash": HashPartitioner, "range": RangePartitioner}
NUM_PARTS = 8
MAX_ITERATIONS = 8
#: ``(label, policy name, policy kwargs)`` for every replay of a trace
POLICIES = tuple((name, name, {}) for name in list_policies()) + (
    ("per-part-oracle", "per-part", {"oracle": True}),
    ("dynamic-uncalibrated", "dynamic", {"calibrate": False}),
    ("per-part-uncalibrated", "per-part", {"calibrate": False}),
    ("adaptive-uncalibrated", "adaptive", {"calibrate": False}),
)

#: ``dataset/kernel/partitioner -> sha256`` over every replay of the trace
PINNED = {
    "livejournal-sim/bfs/hash": "127787050e9711067bdd93e00679b525ad97c435271aafbf2983b69fdbbbac45",
    "livejournal-sim/bfs/range": "b7a3755ae3f071f764250e0da51ca1e2b2e5241e4844b232ee39ff6722e1dc7d",
    "livejournal-sim/cc/hash": "9498d6273175c7477f2ec9477d0f2193a08dc266e675e8ede6b5244649592286",
    "livejournal-sim/cc/range": "947a6e97c59744b9625996a8aa2f27adf972737635ed6edb8a9a1ef646b24084",
    "livejournal-sim/degree/hash": "becdc05cd82b1d93bc245ad5a91a804e06c01829ef71797dca92b0cada5b8eb8",
    "livejournal-sim/degree/range": "877a4aaf26b8c6b86745b5dde700c5d862559d11ea74988503cb3e6c732d046c",
    "livejournal-sim/kcore/hash": "0da272f6a39787f5d5ba8a881956c1e9cf7dff2fbff384c43a5b1676ed41403b",
    "livejournal-sim/kcore/range": "37e2e449961fb639f14c514f1a3fa3e28ea739fc47394a222ba2dad9af7b9bb9",
    "livejournal-sim/pagerank/hash": "3ab508664858bb99db1d4cff3168f8b300bc3167688c8be5aef492bdca49e466",
    "livejournal-sim/pagerank/range": "37855f9e9fdbf21c5f4c0406cebce2f87858f87949cce1cd351dabddfa5fa1c5",
    "livejournal-sim/ppr/hash": "b6d511459e435b91ea303e162a5a392647b0aa98708fe1280a7295f1293c844e",
    "livejournal-sim/ppr/range": "189f6764fa4026b35ee94d1ea9625f07dd67ec19abdb7645014372f14deec9eb",
    "livejournal-sim/sssp/hash": "63a4c1e24e882be04889c5106c2a20204cff7ead6c34dce82caceb97a7a132a0",
    "livejournal-sim/sssp/range": "d1e8cfd7f1a87ae02f8c9b54bfd0c8aef83decf7d79c1ecba5c1416c6896b053",
    "livejournal-sim/widest-path/hash": "09686900f62ae47f210576d50c0b30fd4f6a96b7d403fb8d4f7585ef5ce06a8f",
    "livejournal-sim/widest-path/range": "545bfef6be1764ddd00433108cf0c0e59b15b6d303e0e8eeca8cf8b9f4820dc9",
    "twitter7-sim/bfs/hash": "51d0a684e00090d66ea8a88b05f96977a7d8d19a80b5b47263bd7959c8fadc69",
    "twitter7-sim/bfs/range": "3085260aa5cc839805a4c2c1515232b6acaf2fee10bc6f17a891d86c1238f130",
    "twitter7-sim/cc/hash": "662c7b88b3fc3355ad8754a9c6a6b4ea484728fb45dc523ea766bb19d91c496e",
    "twitter7-sim/cc/range": "31c515931210bffc585cb0c3344c403c81cdf628db48b0c09244aebac4a7d810",
    "twitter7-sim/degree/hash": "478b246fa933e6c735918be96475d11c181679c5e7affed79e9a7e3491cd2cb5",
    "twitter7-sim/degree/range": "08ed077b6fe92caec26f41130d0cc849e2c553809dac8b5e2c15dfa061740097",
    "twitter7-sim/kcore/hash": "1ef5a15f0241448c420c29bed5fd77029ab96fa3cbf320ed4a67c22cb5816fb9",
    "twitter7-sim/kcore/range": "64206d84d05861f89a7b61971f095f07b1197d673006dc8b98d15b3d22f29079",
    "twitter7-sim/pagerank/hash": "13697ed3fbe0f9487bee6ff6eb54d1ab449c2b39da080bc3067591fada794952",
    "twitter7-sim/pagerank/range": "8f21eeee405faa10a5d4dbad6763c3e3c190ada27f4ddd9d29623852826161ad",
    "twitter7-sim/ppr/hash": "844b77098ccec5eb0be228801b0def5c1ad8fe25f5a847f62127d30d4bab0d53",
    "twitter7-sim/ppr/range": "569378d09f6e136b81fb59cc3bbf71b68c81e372b5e6ec842bd7b9ba3ee27de2",
    "twitter7-sim/sssp/hash": "37c148b7f8cca674e23715eb0c9d7283e4c2d31afd728efeab7605c63667a898",
    "twitter7-sim/sssp/range": "713358458f516ff6bb8487074a5db2834509fd8dd291a832532999172e00f1d2",
    "twitter7-sim/widest-path/hash": "cd60b1b6ab1c166c373a0f48146f53176732f06348a36805b935ffc9f381f99e",
    "twitter7-sim/widest-path/range": "d19bc4191a4448cd0560bad1e2850d71051cb1cbe17c5dff22c8cc8eebea8672",
}


def _canonical(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=lambda v: v.item()
    )


def _replay_digest(sim, trace, faults):
    """sha256 over everything one replay reports, decisions included,
    and whether any of its iterations ran a mixed mask."""
    decisions = []

    def collect(span) -> None:
        if span.category == CATEGORY_ITERATION:
            decisions.append(span.attrs.get("decision"))

    tracer = Tracer()
    tracer.add_listener(collect)
    with use_tracer(tracer):
        result = sim.replay(trace, faults=faults)
    ledger = result.ledger
    digest = hashlib.sha256(
        _canonical(
            {
                "iterations": [dataclasses.asdict(s) for s in result.iterations],
                "ledger": sorted(
                    (
                        phase,
                        link.value,
                        nbytes,
                        ledger.messages_for(phase=phase, link=link),
                    )
                    for (phase, link), nbytes in ledger.items()
                ),
                "counters": sorted(result.counters.as_dict().items()),
                "decisions": decisions,
            }
        ).encode()
    ).hexdigest()
    return digest, bool(result.counters.get("iterations-mixed"))


def _trace_digest(dataset: str, kernel_name: str, partitioner: str):
    graph, ds = load_dataset(dataset, tier="tiny", seed=0)
    kernel = get_kernel(kernel_name)
    trace = record_trace(
        graph,
        kernel,
        num_parts=NUM_PARTS,
        partitioner=PARTITIONERS[partitioner](),
        source=int(graph.out_degrees.argmax()) if kernel.needs_source else None,
        max_iterations=MAX_ITERATIONS,
        graph_name=ds.name,
        with_mirrors=False,
    )
    group = hashlib.sha256()
    mixed = 0
    for faulty in (False, True):
        for inc in (False, True):
            config = SystemConfig(num_memory_nodes=NUM_PARTS, enable_inc=inc)
            for label, name, kwargs in POLICIES:
                faults = (
                    FaultSpec.standard(seed=3, num_parts=NUM_PARTS)
                    if faulty
                    else None
                )
                sim = DisaggregatedNDPSimulator(
                    config, policy=get_policy(name, **kwargs)
                )
                digest, has_mixed = _replay_digest(sim, trace, faults)
                group.update(f"faults{int(faulty)}/inc{int(inc)}/{label}".encode())
                group.update(digest.encode())
                mixed += has_mixed
    return group.hexdigest(), mixed


def digests():
    """``(trace key -> group digest, number of replays with a mixed
    iteration)`` over the whole matrix."""
    out = {}
    mixed = 0
    for dataset in DATASETS:
        for kernel in list_kernels():
            for partitioner in PARTITIONERS:
                key = f"{dataset}/{kernel}/{partitioner}"
                out[key], trace_mixed = _trace_digest(dataset, kernel, partitioner)
                mixed += trace_mixed
    return out, mixed


@pytest.fixture(scope="module")
def current():
    return digests()


def test_every_trace_is_pinned(current):
    assert sorted(current[0]) == sorted(PINNED)


def test_policy_replays_match_pinned_digests(current):
    drifted = sorted(
        key for key, value in PINNED.items() if current[0][key] != value
    )
    assert not drifted, f"policy accounting changed for {drifted}"


def test_mixed_masks_are_in_the_matrix(current):
    # Per-part and adaptive replays split placement across shards on a
    # good share of the traces; the pins would say nothing about mixed
    # iterations otherwise.
    assert current[1] >= 300


if __name__ == "__main__":  # pragma: no cover
    pinned, mixed = digests()
    for key, value in pinned.items():
        print(f'    "{key}": "{value}",')
    print(f"# {mixed} replays with a mixed iteration")
