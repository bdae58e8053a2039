#!/usr/bin/env python
"""Trace-driven analysis: run once, compare deployments, pick directions.

Mirrors the paper's methodology end to end: execute BFS once, replay the
recorded trace under two deployments, compare their per-iteration bytes
(who wins each iteration, where the crossover falls), and extend the
decision space with the push/pull direction analysis.

Run:  python examples/trace_analysis.py
"""

from repro import (
    BFS,
    DisaggregatedNDPSimulator,
    DisaggregatedSimulator,
    SystemConfig,
    load_dataset,
    record_trace,
)
from repro.analysis import direction_profile
from repro.utils.units import format_bytes


def main() -> None:
    graph, spec = load_dataset("twitter7-sim", tier="small", seed=7)
    source = int(graph.out_degrees.argmax())
    config = SystemConfig(num_memory_nodes=32)
    print(f"BFS from hub {source} on {spec.name} ({graph}), 32 partitions\n")

    # --- execute once, account what each deployment would move ----------- #
    trace = record_trace(
        graph, BFS(), num_parts=32, source=source, graph_name=spec.name
    )
    fetch_run = DisaggregatedSimulator(config).replay(trace)
    ndp_run = DisaggregatedNDPSimulator(config).replay(trace)
    for label, run in (("fetch", fetch_run), ("ndp", ndp_run)):
        print(f"{label:6s}: {run.num_iterations} iters, "
              f"{format_bytes(run.total_host_link_bytes)} moved, "
              f"peak frontier {int(run.per_iteration_frontier().max()):,}")

    # --- per-iteration comparison (the Fig. 7 questions) ------------------ #
    winners = [
        "fetch" if f < n else "ndp" if n < f else "tie"
        for f, n in zip(fetch_run.per_iteration_bytes(), ndp_run.per_iteration_bytes())
    ]
    decided = [(t, w) for t, w in enumerate(winners) if w != "tie"]
    crossovers = [t for (_, prev), (t, w) in zip(decided, decided[1:]) if w != prev]
    print(f"\nper-iteration winner: {winners}")
    print(f"crossover iterations: {crossovers}")
    ratio = ndp_run.total_host_link_bytes / fetch_run.total_host_link_bytes
    print(f"ndp/fetch total ratio: {ratio:.2f}x "
          f"({'ndp' if ratio < 1 else 'fetch'} wins overall)")

    # --- add the direction axis (push vs pull) ---------------------------- #
    # Profile the iterations that discover a level (the last one does not).
    levels = ndp_run.result_property()
    depth = int(levels.max())
    profile = direction_profile(
        graph,
        levels,
        BFS(),
        num_parts=32,
        push_offload_bytes=ndp_run.per_iteration_bytes()[:depth],
        push_fetch_bytes=fetch_run.per_iteration_bytes()[:depth],
    )
    print("\nwith the push/pull direction decision added:")
    for t, mode in enumerate(profile.best_mode_per_iteration()):
        print(f"  iteration {t}: frontier {int(profile.frontier[t]):6,} -> {mode}")
    totals = profile.totals()
    best_fixed = min(v for k, v in totals.items() if k != "adaptive")
    print(f"\nadaptive (direction+placement per iteration): "
          f"{format_bytes(totals['adaptive'])} vs best fixed mode "
          f"{format_bytes(best_fixed)} "
          f"({1 - totals['adaptive'] / best_fixed:.0%} saved)")


if __name__ == "__main__":
    main()
