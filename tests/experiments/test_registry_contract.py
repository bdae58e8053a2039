"""Contract tests over the experiment registry."""

import inspect
import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import main as runner_main


class TestExperimentContract:
    def test_all_paper_artifacts_covered(self):
        for required in ("table1", "table2", "fig4", "fig5", "fig6", "fig7"):
            assert required in ALL_EXPERIMENTS

    def test_ablation_suite_present(self):
        for ablation in (
            "ablation-dynamic",
            "ablation-costmodel",
            "ablation-switch-buffer",
            "ablation-per-part",
            "ablation-energy",
            "ablation-direction",
            "ablation-timing",
            "ablation-scale",
            "ablation-compute-scaling",
        ):
            assert ablation in ALL_EXPERIMENTS

    def test_every_experiment_accepts_tier_and_seed(self):
        # The runner passes tier/seed to everything except table1; the
        # sweep takes them as SweepSpec fields through its overrides.
        for name, fn in ALL_EXPERIMENTS.items():
            if name == "table1":
                continue
            inspect.signature(fn).bind(tier="tiny", seed=7)

    def test_every_experiment_is_keyword_only(self):
        for name, fn in ALL_EXPERIMENTS.items():
            for param in inspect.signature(fn).parameters.values():
                assert param.kind in (
                    inspect.Parameter.KEYWORD_ONLY,
                    inspect.Parameter.VAR_KEYWORD,
                ), f"{name}.{param.name} must be keyword-only"

    @pytest.mark.parametrize(
        "name",
        ["ablation-timing", "ablation-scale", "ablation-compute-scaling"],
    )
    def test_new_ablations_run_at_tiny_tier(self, name):
        result = ALL_EXPERIMENTS[name](tier="tiny")
        assert result.experiment_id == name
        assert result.render().startswith(f"== {name}")
        assert result.data

    def test_faults_experiment_registered_and_runs(self):
        assert "faults" in ALL_EXPERIMENTS
        result = ALL_EXPERIMENTS["faults"](tier="tiny", seed=7)
        assert result.experiment_id == "faults"
        arches = result.data["architectures"]
        assert set(arches) == {
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        }
        for name, row in arches.items():
            assert row["recovery_bytes"] > 0, name
            assert row["degraded_bytes"] >= row["fault_free_bytes"], name
        # Deterministic: the same seed reproduces the same accounting.
        again = ALL_EXPERIMENTS["faults"](tier="tiny", seed=7)
        assert again.data == result.data

    def test_faults_json_through_runner_cli(self, tmp_path, capsys):
        """``repro-experiments run faults --json`` writes the schema a
        consumer of ``faults.json`` reads."""
        args = ["run", "faults", "--tier", "tiny", "--seed", "7"]
        assert runner_main(args + ["--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "faults.json").read_text())
        spec = data["spec"]
        assert spec["seed"] == 7
        for key in ("horizon", "num_parts", "replication_factor", "events"):
            assert type(spec[key]) is int, key
        arches = data["architectures"]
        assert set(arches) == {
            "distributed",
            "distributed-ndp",
            "disaggregated",
            "disaggregated-ndp",
        }
        for name, row in arches.items():
            for key in (
                "fault_free_bytes",
                "degraded_bytes",
                "recovery_bytes",
                "fault_events",
                "checkpoint_bytes",
                "overhead_pct",
                "slowdown_pct",
            ):
                assert key in row, (name, key)
            assert row["recovery_bytes"] > 0, name
            assert row["degraded_bytes"] >= row["fault_free_bytes"], name
