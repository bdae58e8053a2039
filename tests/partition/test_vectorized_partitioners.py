"""Equivalence, digest-stability, and quality tests for the vectorized
streaming partitioners.

The vectorized :class:`LDGStreamingPartitioner` (default mode) and
:class:`BFSGrowPartitioner` must be *bit-identical* to the scalar reference
implementations they replaced (:mod:`repro.partition.reference`) for every
(graph, num_parts, seed).  The pinned digests additionally freeze the
outputs against future regressions that would silently change experiment
results.  The opt-in chunked LDG mode is only near-equivalent; its cut
quality is bounded here instead.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi, grid_graph, rmat, star_graph
from repro.partition import HashPartitioner, edge_cut
from repro.partition.base import balance_ratio, fill_lightest
from repro.partition.bfs_grow import BFSGrowPartitioner
from repro.partition.reference import bfs_grow_reference, ldg_reference
from repro.partition.streaming import LDGStreamingPartitioner


def _digest(assignment) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(assignment.parts).tobytes()
    ).hexdigest()[:16]


def _shapes():
    return [
        erdos_renyi(200, 900, seed=3),
        erdos_renyi(64, 0, seed=4),  # fully isolated
        rmat(8, 6, seed=11),  # skewed degrees
        star_graph(150),
        grid_graph(12, 13),
    ]


class TestLDGEquivalence:
    @pytest.mark.parametrize("order", ["random", "natural", "bfs"])
    def test_matches_reference_all_orders(self, order):
        for g in _shapes():
            for k, s in ((2, 0), (7, 19)):
                vec = LDGStreamingPartitioner(order=order).partition(g, k, seed=s)
                ref = ldg_reference(g, k, seed=s, order=order)
                assert np.array_equal(vec.parts, ref.parts), (
                    f"LDG diverged from reference: n={g.num_vertices} "
                    f"k={k} seed={s} order={order}"
                )

    def test_batch_size_does_not_change_output(self):
        g = rmat(9, 8, seed=2)
        base = LDGStreamingPartitioner().partition(g, 8, seed=5)
        for batch in (1, 3, 64, 10_000):
            alt = LDGStreamingPartitioner(batch_size=batch).partition(
                g, 8, seed=5
            )
            assert np.array_equal(alt.parts, base.parts), f"batch={batch}"

    def test_tight_slack_fallback_matches_reference(self):
        # slack=0 exercises the full-part fallback path heavily.
        g = erdos_renyi(150, 1200, seed=8)
        for s in (0, 1):
            vec = LDGStreamingPartitioner(slack=0.0).partition(g, 5, seed=s)
            ref = ldg_reference(g, 5, seed=s, slack=0.0)
            assert np.array_equal(vec.parts, ref.parts)


class TestBFSGrowEquivalence:
    def test_matches_reference(self):
        for g in _shapes():
            for k, s in ((2, 0), (7, 19)):
                vec = BFSGrowPartitioner().partition(g, k, seed=s)
                ref = bfs_grow_reference(g, k, seed=s)
                assert np.array_equal(vec.parts, ref.parts), (
                    f"BFS-grow diverged from reference: n={g.num_vertices} "
                    f"k={k} seed={s}"
                )

    def test_fragmented_graph_matches_reference(self):
        # Many tiny components + isolated vertices: exercises the seed
        # drain, the Python small-frontier path, and the leftover fill.
        g = erdos_renyi(600, 500, seed=13)
        for k in (3, 16):
            vec = BFSGrowPartitioner().partition(g, k, seed=21)
            ref = bfs_grow_reference(g, k, seed=21)
            assert np.array_equal(vec.parts, ref.parts)


#: sha256[:16] of the assignment arrays on the tiny dataset tier.  These
#: pin today's (reference-identical) outputs: any change here silently
#: changes every downstream experiment and must be deliberate.
PINNED_DIGESTS = {
    ("livejournal-sim", "ldg", 8, 3): "699e419259b0edd8",
    ("livejournal-sim", "bfs", 8, 3): "b8d0466813bcef58",
    ("livejournal-sim", "ldg", 16, 0): "f7b647aa7ecf63e5",
    ("livejournal-sim", "bfs", 16, 0): "8939adadff63d661",
    ("wikitalk-sim", "ldg", 8, 3): "a371fc5b2cc35c81",
    ("wikitalk-sim", "bfs", 8, 3): "c8e92efa3bf73123",
    ("wikitalk-sim", "ldg", 16, 0): "127892885ae3cc3e",
    ("wikitalk-sim", "bfs", 16, 0): "5d23a67ad76ae805",
    ("uk2005-sim", "ldg", 8, 3): "6480c639abda86fc",
    ("uk2005-sim", "bfs", 8, 3): "484ace0f9169a194",
    ("uk2005-sim", "ldg", 16, 0): "7e125341cc293061",
    ("uk2005-sim", "bfs", 16, 0): "24d020bda91080d1",
}


class TestPinnedDigests:
    @pytest.mark.parametrize(
        "dataset,algo,k,seed", sorted(PINNED_DIGESTS), ids=lambda v: str(v)
    )
    def test_digest(self, dataset, algo, k, seed):
        g, _ = load_dataset(dataset, tier="tiny", seed=7)
        part = (
            LDGStreamingPartitioner() if algo == "ldg" else BFSGrowPartitioner()
        )
        a = part.partition(g, k, seed=seed)
        assert _digest(a) == PINNED_DIGESTS[(dataset, algo, k, seed)]

    @pytest.mark.parametrize(
        "dataset,algo,k,seed", sorted(PINNED_DIGESTS), ids=lambda v: str(v)
    )
    def test_weighted_input_keeps_digest(self, dataset, algo, k, seed):
        # sssp hands the partitioners a weighted graph; they symmetrize
        # only its structure, so the weights must not move a vertex.
        g, _ = load_dataset(dataset, tier="tiny", seed=7)
        part = (
            LDGStreamingPartitioner() if algo == "ldg" else BFSGrowPartitioner()
        )
        a = part.partition(g.with_uniform_weights(2.5), k, seed=seed)
        assert _digest(a) == PINNED_DIGESTS[(dataset, algo, k, seed)]


class TestChunkedLDG:
    def test_quality_near_equivalent(self):
        # Chunked mode ignores block-internal affinity, so it is allowed to
        # lose some cut quality relative to exact LDG — but it must stay
        # clearly better than hashing and respect the balance slack.
        g, _ = load_dataset("livejournal-sim", tier="tiny", seed=7)
        k, s = 8, 3
        exact = LDGStreamingPartitioner().partition(g, k, seed=s)
        chunked = LDGStreamingPartitioner(chunked=True).partition(g, k, seed=s)
        hashed = HashPartitioner().partition(g, k, seed=s)
        assert edge_cut(g, chunked) <= edge_cut(g, hashed)
        assert edge_cut(g, chunked) <= 2.0 * edge_cut(g, exact)

    def test_respects_balance_slack(self):
        g = rmat(9, 8, seed=6)
        for k in (4, 16):
            a = LDGStreamingPartitioner(chunked=True).partition(g, k, seed=2)
            # capacity = (1 + slack) * n / k, plus ceil rounding.
            assert balance_ratio(a) <= 1.1 + k / g.num_vertices

    def test_chunked_covers_all_vertices(self):
        g = erdos_renyi(500, 2000, seed=9)
        a = LDGStreamingPartitioner(chunked=True).partition(g, 6, seed=1)
        assert a.sizes().sum() == g.num_vertices

    def test_chunked_is_deterministic(self):
        g = rmat(8, 8, seed=3)
        a = LDGStreamingPartitioner(chunked=True).partition(g, 8, seed=4)
        b = LDGStreamingPartitioner(chunked=True).partition(g, 8, seed=4)
        assert np.array_equal(a.parts, b.parts)


class TestFillLightest:
    def test_matches_scalar_greedy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 20))
            sizes = rng.integers(0, 50, size=k).astype(np.int64)
            count = int(rng.integers(0, 120))
            expect_sizes = sizes.copy()
            expected = np.empty(count, dtype=np.int64)
            for i in range(count):
                p = int(np.argmin(expect_sizes))
                expected[i] = p
                expect_sizes[p] += 1
            got_sizes = sizes.copy()
            got = fill_lightest(got_sizes, count)
            assert np.array_equal(got, expected)
            assert np.array_equal(got_sizes, expect_sizes)

    def test_rejects_bad_args(self):
        with pytest.raises(PartitionError):
            fill_lightest(np.zeros(3, dtype=np.int64), -1)
        with pytest.raises(PartitionError):
            fill_lightest(np.empty(0, dtype=np.int64), 5)

    def test_empty_fill(self):
        sizes = np.array([2, 1], dtype=np.int64)
        assert fill_lightest(sizes, 0).size == 0
        assert np.array_equal(sizes, [2, 1])
