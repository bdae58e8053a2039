"""The chaos harness itself: deterministic victim choice, file faults,
and cache-artifact corruption that the cache then survives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.store import ArtifactCache
from repro.chaos import CHAOS_KINDS, ChaosPlan, ChaosSpec
from repro.errors import ExperimentError
from support.file_faults import corrupt_artifact, flip_bytes, tear_tail

LABELS = [f"kernel/ds/p{i}" for i in range(8)]


class TestChaosPlan:
    def test_take_drains_in_order(self):
        plan = ChaosPlan(actions={"a": ["kill", "hang"]})
        assert plan.pending() == 2
        assert plan.take("a") == "kill"
        assert plan.take("a") == "hang"
        assert plan.take("a") is None
        assert plan.take("unlisted") is None
        assert plan.pending() == 0


class TestChaosSpec:
    def test_plan_is_deterministic(self):
        spec = ChaosSpec(seed=42, kill_tasks=2, hang_tasks=1)
        assert spec.plan(LABELS).actions == spec.plan(LABELS).actions

    def test_different_seeds_pick_different_victims(self):
        plans = {
            tuple(sorted(ChaosSpec(seed=s, kill_tasks=3).plan(LABELS).actions))
            for s in range(10)
        }
        assert len(plans) > 1

    def test_victims_are_distinct(self):
        spec = ChaosSpec(seed=1, kill_tasks=3, hang_tasks=3, crash_tasks=2)
        plan = spec.plan(LABELS)
        assert len(plan.actions) == 8
        kinds = [kinds[0] for kinds in plan.actions.values()]
        for kind in kinds:
            assert kind in CHAOS_KINDS

    def test_repeats(self):
        plan = ChaosSpec(seed=0, kill_tasks=1, repeats=3).plan(LABELS)
        (queue,) = plan.actions.values()
        assert queue == ["kill", "kill", "kill"]

    def test_too_few_labels_raises(self):
        with pytest.raises(ExperimentError, match="victim"):
            ChaosSpec(seed=0, kill_tasks=3).plan(["only/one/p1"])

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ChaosSpec(kill_tasks=-1)
        with pytest.raises(ExperimentError):
            ChaosSpec(repeats=0)


class TestFileFaults:
    def test_tear_tail_explicit(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x" * 100)
        assert tear_tail(path, 30) == 30
        assert path.stat().st_size == 70

    def test_tear_tail_seeded_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x" * 100)
        b.write_bytes(b"x" * 100)
        assert tear_tail(a, seed=5) == tear_tail(b, seed=5)

    def test_tear_tail_never_overshoots(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"xy")
        assert tear_tail(path, 100) == 2
        assert path.stat().st_size == 0
        assert tear_tail(path) == 0  # empty file: nothing to tear

    def test_flip_bytes_corrupts_in_place(self, tmp_path):
        path = tmp_path / "f"
        original = bytes(range(64))
        path.write_bytes(original)
        offsets = flip_bytes(path, seed=3, count=4)
        assert len(offsets) == 4
        data = path.read_bytes()
        assert len(data) == 64
        for off in offsets:
            assert data[off] == original[off] ^ 0xFF


class TestCorruptArtifact:
    def _seeded_cache(self, root) -> ArtifactCache:
        cache = ArtifactCache(root)
        for i in range(3):
            key = f"{i:02d}" + "ab" * 31
            assert cache.put(
                "dataset", key, {"x": np.arange(100 + i, dtype=np.int64)}
            )
        return cache

    def test_empty_cache_returns_none(self, tmp_path):
        assert corrupt_artifact(tmp_path, seed=0) is None

    def test_truncate_mode_then_cache_survives(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        victim = corrupt_artifact(tmp_path, seed=7)
        assert victim is not None and victim.suffix == ".npz"
        key = victim.stem
        # The normal read path degrades the corrupt entry to a miss.
        assert cache.get("dataset", key) is None
        assert cache.counters.as_dict().get("cache.dataset.corrupt", 0) >= 1

    def test_flip_mode(self, tmp_path):
        self._seeded_cache(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.glob("*/*/*.npz")}
        victim = corrupt_artifact(tmp_path, seed=7, mode="flip")
        assert victim.read_bytes() != before[victim]

    def test_same_seed_same_victim(self, tmp_path):
        self._seeded_cache(tmp_path)
        assert corrupt_artifact(tmp_path, seed=9) == corrupt_artifact(
            tmp_path, seed=9, mode="flip"
        )

    def test_unknown_mode_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="mode"):
            corrupt_artifact(tmp_path, seed=0, mode="meteor")
