"""End-to-end: cached sweeps reproduce identical ledgers, plus the CLIs."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import cache as repro_cache
from repro.arch.results import result_sha256
from repro.cache.cli import main as cache_cli_main
from repro.experiments.sweep import SweepTask, run_sweep
from repro.graph.csr import CSRGraph
from repro.partition.streaming import LDGStreamingPartitioner

TASKS = [
    SweepTask("wikitalk-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
    SweepTask("wikitalk-sim", "bfs", 4, "tiny", 7, max_iterations=6),
    SweepTask("uk2005-sim", "pagerank", 4, "tiny", 7, max_iterations=4),
]


class TestSweepThroughCache:
    def test_second_sweep_hits_and_reproduces_ledgers(self, tmp_path):
        cache = repro_cache.configure(tmp_path)
        cold = run_sweep(TASKS, jobs=1)
        assert cache.counters["cache.dataset.writes"] == 2  # two distinct graphs
        assert cache.counters["cache.dataset.hits"] == 0

        warm = run_sweep(TASKS, jobs=1)
        assert cache.counters["cache.dataset.hits"] == 2
        assert cache.counters["cache.dataset.corrupt"] == 0
        for before, after in zip(cold, warm):
            assert before.task.label == after.task.label
            assert before.ledger_sha256 == after.ledger_sha256
            assert before.result_sha256 == after.result_sha256

    def test_cached_sweep_matches_uncached(self, tmp_path):
        plain = run_sweep(TASKS[:1], jobs=1)
        repro_cache.configure(tmp_path)
        run_sweep(TASKS[:1], jobs=1)  # populate
        cached = run_sweep(TASKS[:1], jobs=1)  # served from cache
        assert plain[0].ledger_sha256 == cached[0].ledger_sha256
        assert plain[0].fetch_bytes == cached[0].fetch_bytes
        assert plain[0].result_sha256 == cached[0].result_sha256


def _rows(comparison):
    return [
        (
            row.architecture,
            result_sha256(row.run.result_property()),
            row.run.ledger.breakdown(),
        )
        for row in comparison.rows
    ]


class TestPrepareThroughCache:
    def test_compare_serves_closure_and_search_assignment_warm(
        self, tmp_path, monkeypatch
    ):
        spec = dict(kernel="cc", partitioner="ldg", tier="tiny")
        uncached = _rows(repro.compare(**spec))
        cache = repro_cache.configure(tmp_path)
        cold = _rows(repro.compare(**spec))

        ldg_calls, closure_builds = [], []
        ldg_partition = LDGStreamingPartitioner.partition
        symmetrized = CSRGraph.symmetrized

        def counting_partition(self, *args, **kwargs):
            ldg_calls.append(1)
            return ldg_partition(self, *args, **kwargs)

        def counting_symmetrized(self, *, dedup=True):
            if not dedup or self._symmetrized_cache is None:
                closure_builds.append(self.num_edges)
            return symmetrized(self, dedup=dedup)

        monkeypatch.setattr(
            LDGStreamingPartitioner, "partition", counting_partition
        )
        monkeypatch.setattr(CSRGraph, "symmetrized", counting_symmetrized)
        warm = _rows(repro.compare(**spec))

        assert warm == cold == uncached
        assert ldg_calls == [] and closure_builds == []
        assert cache.counters["cache.symmetrized.hits"] == 1
        assert cache.counters["cache.partition.hits"] == 1

    def test_closed_form_run_writes_only_its_dataset(
        self, tmp_path, monkeypatch
    ):
        digests = []
        digest = CSRGraph.digest

        def counting_digest(self):
            digests.append(1)
            return digest.fget(self)

        monkeypatch.setattr(CSRGraph, "digest", property(counting_digest))
        cache = repro_cache.configure(tmp_path)
        repro.run(kernel="bfs", tier="tiny")
        assert dict(cache.counters.as_dict()) == {
            "cache.dataset.misses": 1,
            "cache.dataset.writes": 1,
        }
        assert [path.parent.parent.name for path in tmp_path.rglob("*.npz")] == [
            "dataset"
        ]
        assert digests == []


class TestCacheCli:
    def test_stats_and_clear(self, tmp_path, capsys):
        cache = repro_cache.configure(tmp_path)
        cache.put("dataset", "ab" * 32, {"x": np.arange(4)})
        assert cache_cli_main(["--cache-dir", str(tmp_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert "dataset" in out
        assert cache_cli_main(["--cache-dir", str(tmp_path), "clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert cache_cli_main(["--cache-dir", str(tmp_path), "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_env_var_resolution(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(repro_cache.CACHE_DIR_ENV, str(tmp_path))
        assert cache_cli_main(["stats"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_no_directory_is_an_error(self, capsys):
        assert cache_cli_main(["stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestRunCliFlags:
    def test_repro_run_warm_cache(self, tmp_path, capsys):
        from repro.cli import main as run_cli_main

        argv = [
            "--dataset", "wikitalk-sim", "--tier", "tiny",
            "--kernel", "pagerank", "--max-iterations", "3",
            "--partitioner", "ldg",
            "--quiet", "--cache-dir", str(tmp_path),
        ]
        assert run_cli_main(list(argv)) == 0
        cold = capsys.readouterr().out
        assert run_cli_main(list(argv)) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        cache = repro_cache.get_cache()
        assert cache is not None
        assert cache.counters["cache.dataset.hits"] >= 1
        assert cache.counters["cache.partition.hits"] >= 1

    def test_repro_run_hash_assignment_is_not_cached(self, tmp_path, capsys):
        from repro.cli import main as run_cli_main

        argv = [
            "--dataset", "wikitalk-sim", "--tier", "tiny",
            "--kernel", "pagerank", "--max-iterations", "3",
            "--partitioner", "hash",
            "--quiet", "--cache-dir", str(tmp_path),
        ]
        assert run_cli_main(argv) == 0
        cache = repro_cache.get_cache()
        assert cache.counters["cache.dataset.writes"] == 1
        assert cache.counters["cache.partition.writes"] == 0

    def test_repro_run_no_cache(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main as run_cli_main

        monkeypatch.setenv(repro_cache.CACHE_DIR_ENV, str(tmp_path))
        assert run_cli_main([
            "--dataset", "wikitalk-sim", "--tier", "tiny",
            "--kernel", "pagerank", "--max-iterations", "3",
            "--quiet", "--no-cache",
        ]) == 0
        assert repro_cache.get_cache() is None
        assert not list(tmp_path.rglob("*.npz"))

    def test_runner_cache_flags(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        argv = [
            "run", "sweep", "--tier", "tiny", "--seed", "7",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert runner_main([*argv, "--json", str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr().out
        assert "cache.dataset.writes" in cold
        assert runner_main([*argv, "--json", str(tmp_path / "warm")]) == 0
        warm = capsys.readouterr().out
        assert "cache.dataset.hits" in warm
        assert "cache.symmetrized.hits" in warm  # the tiny sweep has a cc task

        # Every workload's ledger and result are bit-identical through it.
        cold_doc, warm_doc = (
            json.loads((tmp_path / name / "sweep.json").read_text())
            for name in ("cold", "warm")
        )
        assert cold_doc.keys() == warm_doc.keys() and cold_doc
        for label in cold_doc:
            for field in ("ledger_sha256", "result_sha256"):
                assert cold_doc[label][field] == warm_doc[label][field], (
                    label, field
                )
