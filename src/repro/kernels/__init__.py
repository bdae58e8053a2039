"""Graph analytics kernels in the traverse/apply/update vertex-program model."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "VertexProgram", "KernelState", "MessageSpec", "ComputeProfile",
        ),
        ".pagerank": ("PageRank",),
        ".bfs": ("BFS",),
        ".sssp": ("SSSP",),
        ".cc": ("ConnectedComponents",),
        ".degree": ("DegreeCentrality",),
        ".kcore": ("KCore",),
        ".ppr": ("PersonalizedPageRank",),
        ".widest_path": ("WidestPath",),
        ".registry": ("get_kernel", "list_kernels"),
        ".reference": ("reference",),
    },
)
