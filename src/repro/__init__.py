"""repro — Disaggregated NDP architectures for large-scale graph analytics.

A production-quality reproduction of *"Towards Disaggregated NDP
Architectures for Large-scale Graph Analytics"* (Lee, Rao, Gavrilovska;
SC 2024 workshops): CSR graph substrate, from-scratch multilevel
partitioner, vertex-program kernels, Table I hardware models, discrete
simulators for the four Table II system architectures, the offload/
aggregation runtime mechanisms of Section IV, and a harness regenerating
every table and figure.

Quickstart — the stable facade (one keyword-only call per workflow)::

    import repro

    result = repro.run(dataset="livejournal-sim", kernel="pagerank",
                       architecture="disaggregated-ndp", tier="tiny")
    print(result.summary_table())

    comparison = repro.compare(dataset="twitter-sim", kernel="bfs",
                               tier="tiny")

Or assemble the pieces yourself::

    from repro import load_dataset, PageRank, DisaggregatedNDPSimulator

    graph, spec = load_dataset("livejournal-sim")
    sim = DisaggregatedNDPSimulator()
    run = sim.run(graph, PageRank(), graph_name=spec.name)
    print(run.summary_table())
"""

import importlib

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".api": (
            "PolicySpec", "RunSpec", "SweepSpec", "run", "compare", "sweep",
            "load_dataset", "partition", "vertex_program",
        ),
        ".errors": (
            "ReproError", "GraphError", "PartitionError", "KernelError",
            "CapabilityError", "ConfigError", "SimulationError",
            "ExperimentError", "JournalError", "SweepInterrupted",
            "FaultError", "RecoveryError",
        ),
        ".faults": (
            "FaultEvent", "FaultKind", "FaultSchedule", "FaultSpec",
            "CheckpointPolicy", "NoCheckpoint", "EveryKCheckpoint",
            "AdaptiveCheckpoint",
        ),
        ".graph": (
            "CSRGraph", "rmat", "erdos_renyi", "barabasi_albert",
            "list_datasets",
        ),
        ".partition": (
            "PartitionAssignment", "HashPartitioner", "RandomPartitioner",
            "RangePartitioner", "BFSGrowPartitioner", "MetisPartitioner",
            "build_mirror_table", "partition_quality",
        ),
        ".kernels": (
            "PageRank", "BFS", "SSSP", "ConnectedComponents",
            "DegreeCentrality", "KCore", "get_kernel", "list_kernels",
        ),
        ".hardware": (
            "CXL_CMS", "CXL_PNM", "UPMEM_PIM", "SWITCHML_TOFINO",
            "SHARP_SWITCH", "HOST_XEON", "device_catalog", "check_offload",
        ),
        ".arch": (
            "DistributedSimulator", "DistributedNDPSimulator",
            "DisaggregatedSimulator", "DisaggregatedNDPSimulator", "RunResult",
            "ExecutionTrace", "record_trace", "estimate_run_energy",
            "get_architecture", "list_architectures",
        ),
        ".runtime": (
            "SystemConfig", "AdaptiveOffloadPolicy", "AlwaysOffload",
            "NeverOffload", "ThresholdPolicy", "DynamicCostPolicy",
            "OraclePolicy", "PerPartCostPolicy", "get_policy",
            "estimate_movement", "exact_movement",
        ),
    },
)
__all__.insert(0, "__version__")

# ``repro.partition`` is the facade function, but it is also the name of a
# subpackage, and the first import of a subpackage binds it on its parent.
# Load the (lazy, cheap) subpackage here so that binding happens now, then
# drop it so the table above serves the function.
importlib.import_module("repro.partition")
del globals()["partition"]
del importlib
