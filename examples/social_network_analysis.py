#!/usr/bin/env python
"""End-to-end analytics scenario: influencer analysis on a social graph.

Builds a preferential-attachment social network, deploys it on a
disaggregated NDP system, and answers real analyst questions with the
engine kernels.  Demonstrates the library as an analytics tool, not just a
movement simulator.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import (
    BFS,
    ConnectedComponents,
    DegreeCentrality,
    DisaggregatedNDPSimulator,
    KCore,
    PageRank,
    SystemConfig,
    barabasi_albert,
)
from repro.utils.units import format_bytes


def main() -> None:
    # A 20k-user social network: new users follow ~8 existing accounts
    # (preferential attachment creates the usual influencer hubs), plus a
    # densely interconnected "founders" community among the first 200 users.
    base = barabasi_albert(20_000, 8, seed=42)
    rng = np.random.default_rng(42)
    founders = 200
    extra = rng.integers(0, founders, size=(6_000, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    src, dst = base.edge_array()
    from repro import CSRGraph

    graph = CSRGraph.from_edges(
        np.concatenate([src, extra[:, 0]]),
        np.concatenate([dst, extra[:, 1]]),
        base.num_vertices,
        dedup=True,
    )
    print(f"social graph: {graph}")

    sim = DisaggregatedNDPSimulator(
        SystemConfig(num_compute_nodes=2, num_memory_nodes=8)
    )

    # Q1: who are the most influential accounts? (PageRank)
    pr_run = sim.run(graph, PageRank(max_iterations=30), graph_name="social")
    ranks = pr_run.result_property()
    influencers = ranks.argsort()[::-1][:5]
    print("\nQ1 — top influencers by PageRank:")
    for v in influencers:
        print(f"   user {int(v):6d}: rank {ranks[v]:.3e}, "
              f"followers {int(graph.in_degrees[v])}")

    # Q2: who gets name-dropped the most? (in-degree via the engine)
    deg_run = sim.run(graph, DegreeCentrality(), graph_name="social")
    in_deg = deg_run.result_property()
    assert np.array_equal(in_deg, graph.in_degrees)
    print(f"\nQ2 — max in-degree: user {int(in_deg.argmax())} with "
          f"{int(in_deg.max())} incoming edges")

    # Q3: how far does a post from the biggest influencer travel? (BFS)
    # Information flows influencer -> followers, i.e. along reversed
    # follow edges, so BFS runs on the transpose graph.
    hub = int(influencers[0])
    follower_graph = graph.reverse()
    bfs_run = sim.run(follower_graph, BFS(), source=hub, graph_name="social")
    levels = bfs_run.result_property()
    reached = levels[levels >= 0]
    print(f"\nQ3 — a post by user {hub} reaches {reached.size:,} users, "
          f"farthest {int(reached.max())} hops, "
          f"median {int(np.median(reached))} hops")

    # Q4: is the network one community? (connected components)
    cc_run = sim.run(graph, ConnectedComponents(), graph_name="social")
    labels = cc_run.result_property()
    sizes = np.bincount(labels[labels >= 0])
    sizes = sizes[sizes > 0]
    print(f"\nQ4 — weakly connected components: {sizes.size} "
          f"(largest covers {sizes.max() / graph.num_vertices:.1%})")

    # Q5: who belongs to the dense core?  Every user follows 8 accounts, so
    # the whole network sits in the 8-core; the 12-core isolates the
    # densely interlinked founders community.
    kcore_run = sim.run(graph, KCore(k=12), graph_name="social")
    core = kcore_run.result_property()
    print(f"\nQ5 — 12-core: {int(core.sum()):,} users "
          f"({core.mean():.2%} of the network — the founders community)")

    total = sum(
        r.total_host_link_bytes
        for r in (pr_run, deg_run, bfs_run, cc_run, kcore_run)
    )
    print(f"\nall five analyses moved {format_bytes(total)} across the "
          f"interconnect (traversals ran in the memory pool)")


if __name__ == "__main__":
    main()
