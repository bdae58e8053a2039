"""Architecture simulators: distributed, distributed-NDP, disaggregated,
and disaggregated-NDP (this work) — Table II's four rows."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("ArchitectureSimulator",),
        ".engine": (
            "IterationProfile", "StructuralProfileCache", "execute_iteration",
            "prepare_graph",
        ),
        ".results": ("IterationStats", "RunResult"),
        ".trace": ("ExecutionTrace", "record_trace"),
        ".distributed": ("DistributedSimulator",),
        ".distributed_ndp": ("DistributedNDPSimulator",),
        ".disaggregated": ("DisaggregatedSimulator",),
        ".disaggregated_ndp": ("DisaggregatedNDPSimulator",),
        ".compare": ("ArchitectureComparison", "compare_architectures"),
        ".energy": ("EnergyBreakdown", "estimate_run_energy"),
        ".registry": ("get_architecture", "list_architectures"),
    },
)
