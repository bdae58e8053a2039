"""The typed PolicySpec API: parse grammar, normalization, digest
participation, the rejection of untyped policies, and the facade
actually honouring ``spec.policy`` (it used to be silently ignored by
``compare``)."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.api import PolicySpec, RunSpec
from repro.errors import ConfigError
from repro.runtime.offload import AdaptiveOffloadPolicy, ThresholdPolicy


class TestParseGrammar:
    def test_bare_name(self):
        spec = PolicySpec.parse("adaptive")
        assert spec == PolicySpec("adaptive")
        assert spec.params == ()

    def test_params_with_coercion(self):
        spec = PolicySpec.parse(
            "threshold:min_avg_degree=2.5"
        )
        assert spec.kwargs == {"min_avg_degree": 2.5}

    def test_scalar_coercion_types(self):
        spec = PolicySpec.parse(
            "adaptive:calibrate=false,ema_alpha=0.25"
        )
        assert spec.kwargs == {"calibrate": False, "ema_alpha": 0.25}
        assert isinstance(spec.kwargs["calibrate"], bool)

    def test_int_stays_int(self):
        spec = PolicySpec.parse("threshold:min_avg_degree=4")
        assert spec.kwargs["min_avg_degree"] == 4
        assert isinstance(spec.kwargs["min_avg_degree"], int)

    def test_whitespace_tolerated(self):
        spec = PolicySpec.parse(" threshold : min_avg_degree = 2 ")
        assert spec.name == "threshold"
        assert spec.kwargs == {"min_avg_degree": 2}

    def test_passthrough(self):
        spec = PolicySpec("never")
        assert PolicySpec.parse(spec) is spec

    def test_mapping_form(self):
        spec = PolicySpec.parse(
            {"name": "threshold", "params": {"min_avg_degree": 2.0}}
        )
        assert spec == PolicySpec("threshold", {"min_avg_degree": 2.0})

    def test_mapping_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown policy field"):
            PolicySpec.parse({"name": "never", "bogus": 1})

    def test_mapping_requires_name(self):
        with pytest.raises(ConfigError, match="'name' field"):
            PolicySpec.parse({"params": {}})

    def test_malformed_param_rejected(self):
        with pytest.raises(ConfigError, match="malformed policy parameter"):
            PolicySpec.parse("threshold:min_avg_degree")

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigError, match="PolicySpec, mapping, or string"):
            PolicySpec.parse(42)

    def test_unknown_name_fails_at_parse_time(self):
        with pytest.raises(ConfigError, match="did you mean 'adaptive'"):
            PolicySpec.parse("adaptve")


class TestNormalization:
    def test_frozen_and_hashable(self):
        spec = PolicySpec("threshold", {"min_avg_degree": 2.0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "never"
        assert isinstance(hash(spec), int)

    def test_dict_list_and_order_variants_are_equal(self):
        from_dict = PolicySpec("adaptive", {"ema_alpha": 0.5, "calibrate": True})
        from_pairs = PolicySpec(
            "adaptive", [("calibrate", True), ("ema_alpha", 0.5)]
        )
        from_lists = PolicySpec(
            "adaptive", [["ema_alpha", 0.5], ["calibrate", True]]
        )
        assert from_dict == from_pairs == from_lists
        assert len({from_dict, from_pairs, from_lists}) == 1

    def test_duplicate_param_rejected(self):
        with pytest.raises(ConfigError, match="duplicate parameter"):
            PolicySpec("adaptive", [("ema_alpha", 0.5), ("ema_alpha", 0.9)])

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ConfigError, match="scalar"):
            PolicySpec("adaptive", {"ema_alpha": [0.5]})

    def test_spell_round_trips(self):
        for text in ("adaptive", "threshold:min_avg_degree=2.5",
                     "adaptive:calibrate=False,ema_alpha=0.25"):
            spec = PolicySpec.parse(text)
            assert PolicySpec.parse(spec.spell()) == spec

    def test_to_json_round_trips_via_mapping(self):
        spec = PolicySpec("threshold", {"min_avg_degree": 3.0})
        assert PolicySpec.parse(spec.to_json()) == spec

    def test_instantiate_passes_kwargs(self):
        policy = PolicySpec("threshold", {"min_avg_degree": 7.0}).instantiate()
        assert isinstance(policy, ThresholdPolicy)
        assert policy.min_avg_degree == 7.0
        assert isinstance(PolicySpec("adaptive").instantiate(),
                          AdaptiveOffloadPolicy)

    def test_instantiate_rejects_bad_kwargs(self):
        with pytest.raises(ConfigError, match="threshold"):
            PolicySpec("threshold", {"no_such_knob": 1}).instantiate()


class TestDigestParticipation:
    def test_none_policy_matches_absent(self):
        # policy=None must stay out of the payload so pre-policy digests
        # (and every persisted cache key) remain valid.
        assert (
            RunSpec(dataset="wikitalk-sim").digest()
            == RunSpec(dataset="wikitalk-sim", policy=None).digest()
        )

    def test_policy_splits_the_digest(self):
        base = RunSpec(dataset="wikitalk-sim")
        adaptive = RunSpec(
            dataset="wikitalk-sim", policy=PolicySpec("adaptive")
        )
        assert base.digest() != adaptive.digest()

    def test_params_split_the_digest(self):
        low = RunSpec(
            dataset="wikitalk-sim",
            policy=PolicySpec("threshold", {"min_avg_degree": 0.1}),
        )
        high = RunSpec(
            dataset="wikitalk-sim",
            policy=PolicySpec("threshold", {"min_avg_degree": 0.3}),
        )
        assert low.digest() != high.digest()

    def test_param_order_does_not_split_the_digest(self):
        a = RunSpec(
            dataset="wikitalk-sim",
            policy=PolicySpec(
                "adaptive", [("calibrate", True), ("ema_alpha", 0.5)]
            ),
        )
        b = RunSpec(
            dataset="wikitalk-sim",
            policy=PolicySpec(
                "adaptive", [("ema_alpha", 0.5), ("calibrate", True)]
            ),
        )
        assert a.digest() == b.digest()


class TestStringPolicyRejected:
    @pytest.mark.parametrize(
        "policy", ["threshold:min_avg_degree=2", {"name": "adaptive"}]
    )
    def test_non_spec_policy_raises_naming_parse(self, policy):
        with pytest.raises(ConfigError, match=r"PolicySpec\.parse"):
            RunSpec(dataset="wikitalk-sim", policy=policy)

    def test_parsed_string_digests_like_spec(self):
        # The CLIs and serve parse the string spelling before they build
        # a RunSpec; the parse must not split the digest.
        as_string = RunSpec(
            dataset="wikitalk-sim", policy=PolicySpec.parse("adaptive")
        )
        as_spec = RunSpec(
            dataset="wikitalk-sim", policy=PolicySpec("adaptive")
        )
        assert as_string.digest() == as_spec.digest()


class TestFacadeHonoursPolicy:
    KW = dict(
        dataset="wikitalk-sim", tier="tiny", max_iterations=3, partitions=4
    )

    def test_run_applies_policy_to_ndp(self):
        never = repro.run(policy=PolicySpec("never"), **self.KW)
        always = repro.run(policy=PolicySpec("always"), **self.KW)
        assert never.architecture == "disaggregated-ndp"
        # Placement moved: never-offload fetches every frontier.
        assert never.total_host_link_bytes != always.total_host_link_bytes

    def test_run_rejects_policy_on_non_ndp_architecture(self):
        with pytest.raises(ConfigError, match="policy"):
            repro.run(
                architecture="host-dram",
                policy=PolicySpec("adaptive"),
                **self.KW,
            )

    def test_compare_applies_policy_to_ndp_row(self):
        # The historical bug: compare() dropped spec.policy on the floor.
        default = repro.compare(**self.KW)
        never = repro.compare(policy=PolicySpec("never"), **self.KW)
        by_arch = lambda c: {
            row.architecture: row.total_host_link_bytes for row in c.rows
        }
        d, n = by_arch(default), by_arch(never)
        assert d["disaggregated-ndp"] != n["disaggregated-ndp"]
        # Static baselines are untouched by the policy choice.
        for arch in ("distributed", "distributed-ndp", "disaggregated"):
            assert d[arch] == n[arch]
