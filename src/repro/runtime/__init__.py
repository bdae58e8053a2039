"""Runtime mechanisms the paper calls for: system configuration, offload
policies, the analytic cost model, and provisioning (Section IV)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("SystemConfig",),
        ".offload": (
            "OffloadPolicy", "AdaptiveOffloadPolicy", "AlwaysOffload",
            "NeverOffload", "ThresholdPolicy", "DynamicCostPolicy",
            "OraclePolicy", "PerPartCostPolicy", "IterationOutlook",
            "check_policy_name", "get_policy", "list_policies",
        ),
        ".cost_model": (
            "MovementEstimate", "estimate_movement", "exact_movement",
            "estimate_distinct_destinations",
        ),
        ".provision": (
            "ProvisionPlan", "provision_coupled", "provision_disaggregated",
            "workload_demands",
        ),
    },
)
