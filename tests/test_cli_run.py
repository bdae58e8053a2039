"""Tests for the repro-run workload CLI."""

import csv
import hashlib
import json

import pytest

from repro.arch.registry import get_architecture
from repro.arch.results import result_sha256
from repro.cli import build_parser, main
from repro.graph.io import read_edge_list
from repro.kernels.registry import get_kernel
from repro.runtime.config import SystemConfig

ARCHITECTURES = (
    "distributed",
    "distributed-ndp",
    "disaggregated",
    "disaggregated-ndp",
)
TINY_LJ = ["--dataset", "livejournal-sim", "--tier", "tiny", "--no-cache"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


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
        rows = _read_csv(csv_path)
        assert len(rows) == 3
        # Both files carry the same values; the CSV holds their str().
        assert [
            {k: str(v) for k, v in row.items()} for row in _read_jsonl(jsonl_path)
        ] == rows

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


class TestTraceFiles:
    """The bytes of ``--trace-csv``/``--trace-jsonl``, pinned as sha256."""

    PINNED = {
        "pagerank": (
            ["--kernel", "pagerank", "--max-iterations", "3"],
            "f0b13670ea87716f5c60c319b2b018d5e815744aa2c7870ad0c0411c1750abb3",
            "5544c2c9b835f3afe90914a440936c5fb82ea69670f8ee392d3d4e13681e87b9",
        ),
        # offloaded_parts varies: -1 (global fetch) and 2
        "bfs-per-part": (
            [
                "--arch", "disaggregated-ndp", "--policy", "per-part",
                "--kernel", "bfs", "--source", "auto",
            ],
            "86c2880eced8c68ff265b02fc2bddcc1052906fa0aca92b68a38875a97fde99f",
            "a9fd52a378a6983b0be176bb8cbf860c5e5123a7eed80e282cfa9cfa113de711",
        ),
        "sssp-distributed": (
            ["--arch", "distributed", "--kernel", "sssp", "--source", "auto"],
            "89c24051fc6b14db62608bbe204c36cc6dd5467de4f6cdf0da43aa4b4aea390a",
            "52156a435c5adfeba1eaebbdd32250a16d032147b9c3c7f37142c3ae9f329b1e",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_trace_file_digests(self, case, tmp_path, capsys):
        args, csv_sha, jsonl_sha = self.PINNED[case]
        csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
        rc = main(
            TINY_LJ + args + [
                "--quiet", "--trace-csv", str(csv_path),
                "--trace-jsonl", str(jsonl_path),
            ]
        )
        assert rc == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(jsonl_path.read_bytes()).hexdigest() == jsonl_sha

    def test_compare_exports_every_architecture(self, tmp_path, capsys):
        """``--compare`` writes the four replayed runs' rows in row order
        and one energy line per architecture, each equal to what the
        architecture's own run writes and prints."""
        workload = TINY_LJ + ["--kernel", "pagerank", "--max-iterations", "3"]
        csv_path, jsonl_path = tmp_path / "c.csv", tmp_path / "c.jsonl"
        rc = main(
            workload + [
                "--compare", "--energy", "--trace-csv", str(csv_path),
                "--trace-jsonl", str(jsonl_path),
            ]
        )
        assert rc == 0
        compare_out = capsys.readouterr().out
        expected_rows, expected_jsonl = [], []
        for arch in ARCHITECTURES:
            # The comparison runs disaggregated-NDP with in-network
            # aggregation on.
            inc = ["--inc"] if arch == "disaggregated-ndp" else []
            single_csv = tmp_path / f"{arch}.csv"
            single_jsonl = tmp_path / f"{arch}.jsonl"
            rc = main(
                workload + inc + [
                    "--arch", arch, "--quiet", "--energy",
                    "--trace-csv", str(single_csv),
                    "--trace-jsonl", str(single_jsonl),
                ]
            )
            assert rc == 0
            energy = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("energy: ")
            ]
            assert len(energy) == 1
            assert f"\n{arch}: {energy[0]}\n" in compare_out
            expected_rows += _read_csv(single_csv)
            expected_jsonl += single_jsonl.read_text().splitlines()
        assert _read_csv(csv_path) == expected_rows
        assert jsonl_path.read_text().splitlines() == expected_jsonl
        assert [row["architecture"] for row in expected_rows[::3]] == list(
            ARCHITECTURES
        )


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
