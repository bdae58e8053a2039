"""`ArtifactCache.verify` and the `repro-cache verify` subcommand: offline
corruption scans that actually read every array, plus eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cli import main as cache_main
from repro.cache.store import ArtifactCache
from support.file_faults import corrupt_artifact


def _seed(cache: ArtifactCache, n: int = 3) -> list:
    keys = []
    for i in range(n):
        key = f"{i:02d}" + "cd" * 31
        assert cache.put(
            "dataset", key, {"x": np.arange(500 + i, dtype=np.int64)}
        )
        keys.append(key)
    return keys


class TestVerify:
    def test_clean_cache_reports_clean(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _seed(cache)
        report = cache.verify()
        assert report["scanned"] == 3
        assert report["corrupt"] == []
        assert report["evicted"] == 0

    def test_truncated_entry_is_found(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _seed(cache)
        victim = corrupt_artifact(tmp_path, seed=4)
        report = cache.verify()
        assert [item["path"] for item in report["corrupt"]] == [str(victim)]
        assert report["evicted"] == 0
        assert victim.exists()  # report-only mode leaves it in place

    def test_bitflipped_entry_is_found(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _seed(cache)
        victim = corrupt_artifact(tmp_path, seed=4, mode="flip")
        report = cache.verify()
        assert str(victim) in {item["path"] for item in report["corrupt"]}

    def test_evict_removes_corrupt_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _seed(cache)
        victim = corrupt_artifact(tmp_path, seed=4)
        report = cache.verify(evict=True)
        assert report["evicted"] == 1
        assert not victim.exists()
        follow_up = cache.verify()
        assert follow_up["scanned"] == 2
        assert follow_up["corrupt"] == []


class TestVerifyCLI:
    def test_clean_exit_zero(self, tmp_path, capsys):
        _seed(ArtifactCache(tmp_path))
        assert cache_main(["--cache-dir", str(tmp_path), "verify"]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_corrupt_exit_one(self, tmp_path, capsys):
        _seed(ArtifactCache(tmp_path))
        victim = corrupt_artifact(tmp_path, seed=2)
        assert cache_main(["--cache-dir", str(tmp_path), "verify"]) == 1
        assert str(victim) in capsys.readouterr().out

    def test_evict_exit_zero_and_removes(self, tmp_path):
        _seed(ArtifactCache(tmp_path))
        victim = corrupt_artifact(tmp_path, seed=2)
        assert (
            cache_main(["--cache-dir", str(tmp_path), "verify", "--evict"])
            == 0
        )
        assert not victim.exists()

    def test_no_cache_dir_is_an_error(self, capsys):
        assert cache_main(["verify"]) == 2
