"""Graph substrate: CSR representation, generators, datasets, I/O."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".csr": ("CSRGraph",),
        ".generators": (
            "rmat", "erdos_renyi", "barabasi_albert", "watts_strogatz",
            "grid_graph", "ring_graph", "star_graph", "path_graph",
            "complete_graph",
        ),
        ".datasets": ("DatasetSpec", "load_dataset", "list_datasets"),
        ".io": ("io",),
        ".traversal": ("bfs_levels",),
    },
)
