"""Tests for the experiment CLI."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import build_parser, main, run_experiment


class TestRunExperiment:
    def test_table1(self):
        report = run_experiment("table1")
        assert "Table I" in report

    def test_unknown_id(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_json_export(self, tmp_path):
        run_experiment("fig5", tier="tiny", json_dir=str(tmp_path))
        payload = json.loads((tmp_path / "fig5.json").read_text())
        assert "series" in payload
        assert payload["series"]["wikitalk-sim"]["ratio"] > 1.0


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig4", "fig5", "fig6", "fig7"):
            assert name in out

    def test_run_one(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "NDP device capabilities" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "nothing"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_with_tier(self, capsys):
        assert main(["run", "fig5", "--tier", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "wikitalk-sim" in out

    def test_offload_experiment_acceptance(self, tmp_path, capsys):
        # The adaptive controller beats every static deployment on at
        # least one Fig. 7 cell, as written to the experiment's JSON.
        args = ["run", "offload", "--tier", "tiny", "--seed", "7"]
        assert main(args + ["--json", str(tmp_path)]) == 0
        acceptance = json.loads((tmp_path / "offload.json").read_text())["acceptance"]
        assert acceptance["passed"], acceptance
        assert acceptance["cells_won"] == len(acceptance["winning_cells"]) >= 1
        assert "Adaptive beats every static architecture" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_tier_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", "--tier", "huge"])

    def test_resume_requires_journal(self, capsys):
        assert main(["run", "sweep", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_chaos_counts_require_seed(self, capsys):
        assert main(["run", "sweep", "--chaos-kill", "1"]) == 2
        assert "--chaos-seed" in capsys.readouterr().err

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run", "sweep",
                "--journal", "s.journal", "--resume",
                "--quarantine-after", "2",
                "--heartbeat-timeout", "5",
                "--chaos-seed", "3", "--chaos-kill", "1", "--chaos-hang", "1",
            ]
        )
        assert args.journal == "s.journal"
        assert args.resume
        assert args.quarantine_after == 2
        assert args.heartbeat_timeout == 5.0
        assert (args.chaos_seed, args.chaos_kill, args.chaos_hang) == (3, 1, 1)

    def test_dry_run_prints_task_list_and_digest(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run", "sweep", "--tier", "tiny",
                    "--dry-run", "--json", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pagerank" in out
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["dry_run"] is True
        digest = payload["sweep_digest"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert all(
            "task_digest" in task for task in payload["tasks"].values()
        )

    def test_dry_run_executes_nothing(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        assert (
            main(
                [
                    "run", "sweep", "--tier", "tiny",
                    "--dry-run", "--journal", str(journal),
                ]
            )
            == 0
        )
        assert not journal.exists()

    def test_dry_run_only_applies_to_sweep(self, capsys):
        assert main(["run", "fig5", "--dry-run"]) == 2
        assert "--dry-run" in capsys.readouterr().err

    def test_remote_scheduler_only_applies_to_sweep(self, capsys):
        assert main(["run", "fig5", "--scheduler", "remote"]) == 2
        assert "--scheduler remote" in capsys.readouterr().err

    def test_remote_scheduler_requires_token(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_TOKEN", raising=False)
        assert main(["run", "sweep", "--scheduler", "remote"]) == 2
        assert "token" in capsys.readouterr().err

    def test_remote_scheduler_rejects_bad_bind(self, capsys):
        assert (
            main(
                [
                    "run", "sweep", "--scheduler", "remote",
                    "--token", "t", "--bind", "nonsense",
                ]
            )
            == 2
        )
        assert "--bind" in capsys.readouterr().err

    def test_journaled_sweep_cli_roundtrip(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        base = [
            "run", "sweep", "--tier", "tiny", "--jobs", "2",
            "--journal", str(journal),
            "--json", str(tmp_path),
        ]
        assert main(base) == 0
        first = json.loads((tmp_path / "sweep.json").read_text())
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        resumed = json.loads((tmp_path / "sweep.json").read_text())
        assert resumed == first
        assert "journal" in capsys.readouterr().out.lower()
