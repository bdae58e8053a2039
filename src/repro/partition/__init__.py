"""Graph partitioning: simple schemes, a from-scratch METIS-like multilevel
partitioner, quality metrics, and Gluon-style master/mirror construction."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "PartitionAssignment", "Partitioner", "edge_cut",
            "communication_volume", "balance_ratio", "edge_balance_ratio",
            "partition_quality", "PartitionQuality",
        ),
        ".random_hash": ("HashPartitioner", "RandomPartitioner"),
        ".range_chunk": ("RangePartitioner", "EdgeBalancedRangePartitioner"),
        ".bfs_grow": ("BFSGrowPartitioner",),
        ".metis": ("MetisPartitioner",),
        ".spectral": ("SpectralPartitioner",),
        ".streaming": ("LDGStreamingPartitioner",),
        ".mirrors": (
            "MirrorTable", "build_mirror_table", "replication_factor",
        ),
        ".registry": ("get_partitioner", "list_partitioners"),
    },
)
