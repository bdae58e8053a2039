"""Cached setup-path wrappers return byte-identical artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    CachedPartitioner,
    load_dataset_cached,
    symmetrized_cached,
)
from repro.cache.store import ArtifactCache
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.partition.base import PartitionAssignment
from repro.partition.registry import get_partitioner
from repro.partition.streaming import LDGStreamingPartitioner


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path)


class ShiftedLDG(LDGStreamingPartitioner):
    """Reuses LDG's registry name and parameters, not its assignment."""

    def partition(self, graph, num_parts, *, seed=None):
        parts = super().partition(graph, num_parts, seed=seed).parts
        return PartitionAssignment((parts + 1) % num_parts, num_parts)


class TestDatasetWrapper:
    def test_cold_then_warm_identical(self, cache):
        direct, spec = load_dataset("wikitalk-sim", tier="tiny", seed=7)
        cold, _ = load_dataset_cached(
            "wikitalk-sim", tier="tiny", seed=7, cache=cache
        )
        warm, warm_spec = load_dataset_cached(
            "wikitalk-sim", tier="tiny", seed=7, cache=cache
        )
        for got in (cold, warm):
            np.testing.assert_array_equal(got.indptr, direct.indptr)
            np.testing.assert_array_equal(got.indices, direct.indices)
        assert warm_spec.name == spec.name
        assert cache.counters["cache.dataset.hits"] == 1
        assert cache.counters["cache.dataset.writes"] == 1

    def test_no_cache_passthrough(self):
        graph, spec = load_dataset_cached("wikitalk-sim", tier="tiny", seed=7)
        direct, _ = load_dataset("wikitalk-sim", tier="tiny", seed=7)
        np.testing.assert_array_equal(graph.indices, direct.indices)
        assert spec.name == "wikitalk-sim"

    def test_distinct_seeds_get_distinct_entries(self, cache):
        a, _ = load_dataset_cached("wikitalk-sim", tier="tiny", seed=7, cache=cache)
        b, _ = load_dataset_cached("wikitalk-sim", tier="tiny", seed=8, cache=cache)
        assert cache.counters["cache.dataset.writes"] == 2
        assert not np.array_equal(a.indices, b.indices)


class TestCachedPartitioner:
    @pytest.mark.parametrize("name", ["ldg", "bfs", "hash"])
    def test_warm_hit_is_byte_identical(self, cache, name):
        graph = erdos_renyi(400, 2400, seed=5)
        inner = get_partitioner(name)
        wrapped = CachedPartitioner(inner, cache=cache)
        want = inner.partition(graph, 8, seed=3)
        cold = wrapped.partition(graph, 8, seed=3)
        warm = wrapped.partition(graph, 8, seed=3)
        np.testing.assert_array_equal(cold.parts, want.parts)
        np.testing.assert_array_equal(warm.parts, want.parts)
        assert warm.num_parts == want.num_parts
        assert cache.counters["cache.partition.hits"] == 1

    def test_uncacheable_seed_bypasses_cache(self, cache):
        graph = erdos_renyi(200, 1000, seed=5)
        wrapped = CachedPartitioner(get_partitioner("ldg"), cache=cache)
        wrapped.partition(graph, 4, seed=np.random.default_rng(1))
        wrapped.partition(graph, 4, seed=None)
        assert cache.counters["cache.partition.writes"] == 0
        assert cache.counters["cache.partition.misses"] == 0

    def test_key_separates_graph_params_parts_seed(self, cache):
        g1 = erdos_renyi(200, 1000, seed=5)
        g2 = erdos_renyi(200, 1000, seed=6)
        wrapped = CachedPartitioner(get_partitioner("ldg"), cache=cache)
        wrapped.partition(g1, 4, seed=3)
        wrapped.partition(g2, 4, seed=3)   # different graph
        wrapped.partition(g1, 8, seed=3)   # different k
        wrapped.partition(g1, 4, seed=4)   # different seed
        slack = CachedPartitioner(get_partitioner("ldg", slack=0.5), cache=cache)
        slack.partition(g1, 4, seed=3)     # different params
        assert cache.counters["cache.partition.writes"] == 5
        assert cache.counters["cache.partition.hits"] == 0

    def test_name_mirrors_inner(self, cache):
        wrapped = CachedPartitioner(get_partitioner("ldg"), cache=cache)
        assert wrapped.name == "ldg"

    def test_subclass_reusing_a_registry_name_gets_its_own_entry(self, cache):
        graph = erdos_renyi(400, 2400, seed=5)
        CachedPartitioner(get_partitioner("ldg"), cache=cache).partition(
            graph, 8, seed=3
        )
        want = ShiftedLDG().partition(graph, 8, seed=3)
        got = CachedPartitioner(ShiftedLDG(), cache=cache).partition(
            graph, 8, seed=3
        )
        np.testing.assert_array_equal(got.parts, want.parts)
        assert cache.counters["cache.partition.hits"] == 0
        assert cache.counters["cache.partition.writes"] == 2


class TestSymmetrizedWrapper:
    def test_warm_hit_is_byte_identical_and_seeds_the_memo(self, cache):
        want = erdos_renyi(300, 1800, seed=5).symmetrized()
        symmetrized_cached(erdos_renyi(300, 1800, seed=5), cache=cache)
        graph = erdos_renyi(300, 1800, seed=5)
        warm = symmetrized_cached(graph, cache=cache)
        assert warm.digest == want.digest
        assert warm.indptr.dtype == want.indptr.dtype
        assert warm.indices.dtype == want.indices.dtype
        # One lookup per graph object: the memo now answers.
        assert symmetrized_cached(graph, cache=cache) is warm
        assert graph.symmetrized() is warm
        assert cache.counters["cache.symmetrized.hits"] == 1
        assert cache.counters["cache.symmetrized.writes"] == 1


class TestCorruptionRecovery:
    def test_corrupt_dataset_entry_regenerates(self, cache):
        cold, _ = load_dataset_cached(
            "wikitalk-sim", tier="tiny", seed=7, cache=cache
        )
        entry = next((cache.root / "dataset").glob("*/*.npz"))
        entry.write_bytes(b"garbage")
        again, _ = load_dataset_cached(
            "wikitalk-sim", tier="tiny", seed=7, cache=cache
        )
        np.testing.assert_array_equal(again.indices, cold.indices)
        assert cache.counters["cache.dataset.corrupt"] == 1
        assert cache.counters["cache.dataset.writes"] == 2

    def test_corrupt_symmetrized_entry_rebuilds(self, cache):
        want = erdos_renyi(300, 1800, seed=5).symmetrized()
        symmetrized_cached(erdos_renyi(300, 1800, seed=5), cache=cache)
        entry = next((cache.root / "symmetrized").glob("*/*.npz"))
        entry.write_bytes(b"garbage")
        again = symmetrized_cached(erdos_renyi(300, 1800, seed=5), cache=cache)
        assert again.digest == want.digest
        assert cache.counters["cache.symmetrized.corrupt"] == 1
        assert cache.counters["cache.symmetrized.writes"] == 2
