"""Store-level behaviour: round trips, corruption, concurrency, caps."""

from __future__ import annotations

import errno
import gc
import multiprocessing
import os
import sys
import warnings

import numpy as np
import pytest

from repro.cache.keys import (
    cacheable_seed,
    canonical_key,
    dataset_key,
    graph_digest,
    partition_key,
)
from repro.cache.store import ArtifactCache
from repro.errors import CacheError
from repro.graph.generators import erdos_renyi

KEY = "ab" * 32


def _arrays():
    return {
        "indptr": np.arange(5, dtype=np.int64),
        "indices": np.asarray([1, 2, 3, 0], dtype=np.int64),
    }


class TestKeys:
    def test_canonical_key_is_deterministic(self):
        a = canonical_key("dataset", {"x": 1, "y": "z"})
        b = canonical_key("dataset", {"y": "z", "x": 1})
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_key_separates_kind_and_payload(self):
        base = canonical_key("dataset", {"x": 1})
        assert canonical_key("partition", {"x": 1}) != base
        assert canonical_key("dataset", {"x": 2}) != base

    def test_unserializable_payload_raises(self):
        with pytest.raises(CacheError):
            canonical_key("dataset", {"x": object()})

    def test_cacheable_seed(self):
        assert cacheable_seed(7) == 7
        assert cacheable_seed(np.int32(9)) == 9
        assert cacheable_seed(True) is None
        assert cacheable_seed(None) is None
        assert cacheable_seed(np.random.default_rng(0)) is None

    def test_graph_digest_tracks_content(self):
        g1 = erdos_renyi(50, 120, seed=3)
        g2 = erdos_renyi(50, 120, seed=3)
        g3 = erdos_renyi(50, 120, seed=4)
        assert graph_digest(g1) == graph_digest(g2)
        assert graph_digest(g1) != graph_digest(g3)

    def test_partition_key_tracks_params(self):
        base = partition_key("aa", "ldg", {"slack": 0.1}, 8, 7)
        assert partition_key("aa", "ldg", {"slack": 0.2}, 8, 7) != base
        assert partition_key("aa", "ldg", {"slack": 0.1}, 4, 7) != base
        assert partition_key("aa", "ldg", {"slack": 0.1}, 8, 8) != base

    def test_dataset_key_tracks_scale(self):
        assert dataset_key("a", "tiny", 7, 0) != dataset_key("a", "tiny", 7, 1)


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("dataset", KEY) is None
        assert cache.put(
            "dataset", KEY, _arrays(), meta={"n": 5}, gen_seconds=1.5
        )
        entry = cache.get("dataset", KEY)
        assert entry is not None
        arrays, meta = entry
        for name, want in _arrays().items():
            np.testing.assert_array_equal(arrays[name], want)
        assert meta["n"] == 5
        assert meta["gen_seconds"] == 1.5
        assert cache.counters["cache.dataset.hits"] == 1
        assert cache.counters["cache.dataset.misses"] == 1
        assert cache.counters["cache.seconds_saved"] == 1.5

    def test_bad_kind_and_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.path_for("nope", KEY)
        with pytest.raises(CacheError):
            cache.path_for("dataset", "../escape")
        with pytest.raises(CacheError):
            cache.path_for("dataset", "")

    def test_reserved_meta_name_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.put("dataset", KEY, {"__meta__": np.zeros(1)})

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("dataset", KEY, _arrays())
        cache.put("partition", "cd" * 32, _arrays())
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["kinds"]["dataset"]["entries"] == 1
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


class TestCorruption:
    def test_truncated_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("dataset", KEY, _arrays())
        path = cache.path_for("dataset", KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get("dataset", KEY) is None
        assert cache.counters["cache.dataset.corrupt"] == 1
        assert not path.exists()
        # After eviction the slot is writable again.
        assert cache.put("dataset", KEY, _arrays())
        assert cache.get("dataset", KEY) is not None

    def test_corrupt_entry_read_closes_its_file(self, tmp_path, monkeypatch):
        """Regression: np.load leaked its handle on a truncated zip."""
        cache = ArtifactCache(tmp_path)
        cache.put("dataset", KEY, _arrays())
        path = cache.path_for("dataset", KEY)
        torn = path.read_bytes()[: path.stat().st_size // 2]
        # An unclosed file warns from its finalizer, where an error can
        # only reach the unraisable hook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            path.write_bytes(torn)
            assert cache.get("dataset", KEY) is None
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(torn)
            assert cache.verify()["corrupt"]
            gc.collect()
        assert unraisable == []

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("dataset", KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"this is not a zip file")
        assert cache.get("dataset", KEY) is None
        assert cache.counters["cache.dataset.corrupt"] == 1

    def test_missing_meta_field_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("dataset", KEY)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as fh:
            np.savez(fh, **_arrays())  # valid npz, no __meta__
        assert cache.get("dataset", KEY) is None
        assert cache.counters["cache.dataset.corrupt"] == 1

    def test_bad_meta_json_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        blob = np.frombuffer(b"{not json", dtype=np.uint8)
        path = cache.path_for("dataset", KEY)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=blob, **_arrays())
        assert cache.get("dataset", KEY) is None
        assert cache.counters["cache.dataset.corrupt"] == 1


class TestWriteFailures:
    def test_read_only_root_degrades_to_no_op(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")

        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        # Root runs ignore directory permission bits, so simulate EROFS at
        # the syscall boundary instead of via chmod.
        monkeypatch.setattr(os, "replace", refuse)
        assert cache.put("dataset", KEY, _arrays()) is False
        assert cache.counters["cache.dataset.write_errors"] == 1
        assert cache.get("dataset", KEY) is None
        # No temp-file litter left behind.
        leftovers = list((tmp_path / "cache").rglob(".tmp-*"))
        assert leftovers == []

    def test_unwritable_parent_degrades_to_no_op(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)

        def refuse(*args, **kwargs):
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr("tempfile.mkstemp", refuse)
        assert cache.put("dataset", KEY, _arrays()) is False
        assert cache.counters["cache.dataset.write_errors"] == 1


def _concurrent_put(args):
    root, key, worker = args
    cache = ArtifactCache(root)
    ok = cache.put(
        "dataset", key, _arrays(), meta={"worker": worker}, gen_seconds=0.1
    )
    entry = cache.get("dataset", key)
    return ok, entry is not None


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Racing writers of one content-addressed key never corrupt it."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")
        jobs = [(str(tmp_path), KEY, w) for w in range(8)]
        with ctx.Pool(4) as pool:
            results = pool.map(_concurrent_put, jobs)
        assert all(ok for ok, _ in results)
        assert all(hit for _, hit in results)
        cache = ArtifactCache(tmp_path)
        entry = cache.get("dataset", KEY)
        assert entry is not None
        arrays, _ = entry
        np.testing.assert_array_equal(arrays["indptr"], _arrays()["indptr"])


class TestSizeCap:
    def test_lru_eviction_prefers_stale_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=0)
        cache.put("dataset", KEY, _arrays())
        # A zero cap evicts everything as soon as it lands.
        assert cache.stats()["entries"] == 0
        assert cache.counters["cache.evictions"] >= 1

    def test_recently_used_entry_survives(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for key in keys:
            cache.put("dataset", key, _arrays())
        # Entry sizes differ by a few bytes (the meta blob embeds a float
        # timestamp whose repr length varies), so cap at the largest one.
        size = max(
            cache.path_for("dataset", key).stat().st_size for key in keys
        )
        # Age everything, then touch keys[3] via a read.
        for i, key in enumerate(keys):
            os.utime(cache.path_for("dataset", key), (1000 + i, 1000 + i))
        assert cache.get("dataset", keys[3]) is not None
        cache.max_bytes = size  # room for exactly one entry
        cache._enforce_cap()
        assert not cache.path_for("dataset", keys[0]).exists()
        assert cache.path_for("dataset", keys[3]).exists()

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path, max_bytes=-1)


class TestGlobalConfiguration:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        from repro import cache as repro_cache

        monkeypatch.setenv(repro_cache.CACHE_DIR_ENV, str(tmp_path))
        repro_cache._env_checked = False
        repro_cache._active = None
        active = repro_cache.get_cache()
        assert active is not None
        assert active.root == tmp_path

    def test_disable_wins_over_env(self, tmp_path, monkeypatch):
        from repro import cache as repro_cache

        monkeypatch.setenv(repro_cache.CACHE_DIR_ENV, str(tmp_path))
        repro_cache.disable()
        assert repro_cache.get_cache() is None
