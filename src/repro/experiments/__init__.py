"""Experiment harness: one module per paper table/figure plus ablations.

Each module exposes ``run(...)`` returning an :class:`ExperimentResult`
whose tables print the same rows/series the paper plots.  The CLI
(``python -m repro.experiments`` or the ``repro-experiments`` script) runs
them by id.
"""

from repro._lazy import LazyRegistry, lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {".common": ("ExperimentResult",)}
)
__all__.append("ALL_EXPERIMENTS")

#: experiment id -> its ``run`` callable; a module loads on first lookup
ALL_EXPERIMENTS = LazyRegistry(
    __name__,
    {
        "table1": ".table1:run",
        "table2": ".table2:run",
        "fig4": ".fig4:run",
        "fig5": ".fig5:run",
        "fig6": ".fig6:run",
        "fig7": ".fig7:run",
        "offload": ".offload:run",
        "sweep": ".sweep:run",
        "faults": ".faults:run",
        "ablation-dynamic": ".ablations:run_dynamic_policy",
        "ablation-costmodel": ".ablations:run_cost_model_fidelity",
        "ablation-switch-buffer": ".ablations:run_switch_buffer",
        "ablation-per-part": ".ablations:run_per_part_offload",
        "ablation-energy": ".ablations:run_energy",
        "ablation-direction": ".ablations:run_direction",
        "ablation-timing": ".ablations:run_timing",
        "ablation-scale": ".ablations:run_scale",
        "ablation-compute-scaling": ".ablations:run_compute_scaling",
        "ablation-dobfs": ".ablations:run_dobfs",
    },
)
