"""Tests for the repro-run workload CLI."""

import pytest

from repro.arch.registry import get_architecture
from repro.arch.results import result_sha256
from repro.cli import build_parser, main
from repro.graph.io import read_edge_list
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig
from repro.trace import load_trace_csv, load_trace_jsonl


class TestCLIRuns:
    def test_pagerank_default(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--max-iterations", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "disaggregated-ndp / pagerank" in out
        assert "3 iterations" in out

    def test_quiet_mode(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--max-iterations", "2", "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Movement ledger" not in out
        assert out.count("\n") <= 2

    def test_rooted_kernel_auto_source(self, capsys):
        rc = main(
            [
                "--dataset", "twitter7-sim", "--tier", "tiny",
                "--kernel", "bfs", "--source", "auto", "--quiet",
            ]
        )
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_rooted_kernel_requires_source(self, capsys):
        rc = main(
            [
                "--dataset", "twitter7-sim", "--tier", "tiny",
                "--kernel", "bfs",
            ]
        )
        assert rc == 2
        assert "--source" in capsys.readouterr().err

    def test_explicit_numeric_source(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "sssp", "--source", "0", "--quiet",
            ]
        )
        assert rc == 0

    def test_all_architectures(self, capsys):
        for arch in (
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        ):
            rc = main(
                [
                    "--dataset", "livejournal-sim", "--tier", "tiny",
                    "--kernel", "pagerank", "--arch", arch,
                    "--max-iterations", "2", "--quiet",
                ]
            )
            assert rc == 0, arch
            assert arch in capsys.readouterr().out

    def test_policy_and_inc_flags(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--policy", "dynamic", "--inc",
                "--max-iterations", "2", "--quiet",
            ]
        )
        assert rc == 0

    def test_metis_partitioner(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--partitioner", "metis",
                "--max-iterations", "2", "--quiet",
            ]
        )
        assert rc == 0

    def test_energy_flag(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--energy",
                "--max-iterations", "2", "--quiet",
            ]
        )
        assert rc == 0
        assert "energy:" in capsys.readouterr().out

    def test_trace_export(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        jsonl_path = tmp_path / "t.jsonl"
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--max-iterations", "3", "--quiet",
                "--trace-csv", str(csv_path),
                "--trace-jsonl", str(jsonl_path),
            ]
        )
        assert rc == 0
        assert len(load_trace_csv(csv_path)) == 3
        assert load_trace_jsonl(jsonl_path) == load_trace_csv(csv_path)

    def test_graph_file_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")
        rc = main(
            ["--graph-file", str(path), "--kernel", "cc", "--parts", "2", "--quiet"]
        )
        assert rc == 0

    def test_compare_mode(self, capsys):
        rc = main(
            [
                "--dataset", "livejournal-sim", "--tier", "tiny",
                "--kernel", "pagerank", "--compare", "--max-iterations", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for arch in (
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        ):
            assert arch in out

    def test_weighted_kernel_on_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        rc = main(
            [
                "--graph-file", str(path), "--kernel", "sssp",
                "--source", "0", "--parts", "2", "--quiet",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("kernel", ["sssp", "widest-path"])
    def test_graph_file_result_matches_library(self, kernel, tmp_path, capsys):
        # The CLI leaves unit weights to the simulator's own prepare step.
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n0 3\n3 4\n")
        rc = main(
            [
                "--graph-file", str(path), "--kernel", kernel,
                "--source", "0", "--parts", "2", "--quiet", "--result-sha",
            ]
        )
        assert rc == 0
        run = get_architecture(
            "disaggregated-ndp", SystemConfig(num_memory_nodes=2)
        ).run(read_edge_list(path), get_kernel(kernel), source=0)
        expected = result_sha256(run.result_property())
        assert f"result sha256: {expected}" in capsys.readouterr().out


class TestParser:
    def test_graph_source_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--kernel", "pagerank"])

    def test_dataset_and_file_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "--dataset", "livejournal-sim", "--graph-file", "x",
                    "--kernel", "pagerank",
                ]
            )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--dataset", "livejournal-sim", "--kernel", "magic"]
            )
