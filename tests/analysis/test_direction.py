"""Tests for the push/pull direction analysis."""

import numpy as np
import pytest

from repro.analysis import direction_profile, pull_iteration_bytes
from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.errors import ReproError
from repro.graph.generators import path_graph
from repro.kernels.bfs import BFS
from repro.runtime.config import SystemConfig


def bfs_replays(graph, source, num_parts, max_iterations=None):
    """One engine BFS, replayed by the fetch and NDP deployments."""
    trace = record_trace(
        graph,
        BFS(),
        num_parts=num_parts,
        source=source,
        max_iterations=max_iterations,
        with_mirrors=False,
    )
    cfg = SystemConfig(num_memory_nodes=num_parts)
    return (
        DisaggregatedSimulator(cfg).replay(trace),
        DisaggregatedNDPSimulator(cfg).replay(trace),
    )


def profile_of(graph, fetch, offload, num_parts):
    return direction_profile(
        graph,
        fetch.result_property(),
        BFS(),
        num_parts=num_parts,
        push_offload_bytes=offload.per_iteration_bytes(),
        push_fetch_bytes=fetch.per_iteration_bytes(),
    )


@pytest.fixture(scope="module")
def bfs_runs(twitter_tiny):
    return bfs_replays(twitter_tiny, int(twitter_tiny.out_degrees.argmax()), 8)


@pytest.fixture(scope="module")
def profile(twitter_tiny, bfs_runs):
    return profile_of(twitter_tiny, *bfs_runs, num_parts=8)


class TestPullIterationBytes:
    def test_formula(self):
        assert pull_iteration_bytes(
            num_vertices=800, num_parts=4, discovered_next=10, wire_bytes=16
        ) == 100 * 4 + 160

    def test_bitmap_rounding(self):
        assert pull_iteration_bytes(
            num_vertices=9, num_parts=1, discovered_next=0, wire_bytes=16
        ) == 2


class TestDirectionProfile:
    def test_profile_from_measured_runs(self, bfs_runs, profile):
        fetch, offload = bfs_runs
        # One iteration per level; the last discovers nothing.
        assert profile.iterations == fetch.num_iterations
        assert profile.iterations == int(fetch.result_property().max()) + 1
        # The measured series carry through untouched.
        assert np.array_equal(profile.push_fetch, fetch.per_iteration_bytes())
        assert np.array_equal(profile.push_offload, offload.per_iteration_bytes())
        assert np.array_equal(profile.frontier, offload.per_iteration_frontier())

    def test_discovery_counts_match_levels(self, twitter_tiny, bfs_runs, profile):
        fetch, _ = bfs_runs
        levels = fetch.result_property()
        for t in range(profile.iterations):
            assert profile.discovered[t] == int((levels == t + 1).sum())
            assert profile.frontier[t] == int((levels == t).sum())
            assert profile.pull_offload[t] == pull_iteration_bytes(
                num_vertices=twitter_tiny.num_vertices,
                num_parts=8,
                discovered_next=int(profile.discovered[t]),
                wire_bytes=BFS().message.wire_bytes,
            )

    def test_pull_wins_dense_iteration(self, profile):
        """On a skewed small-diameter graph the hub iteration floods push
        with updates; pull ships one update per discovery instead."""
        dense_iter = int(np.argmax(profile.frontier))
        assert profile.pull_offload[dense_iter] < profile.push_offload[dense_iter]
        assert profile.pull_offload[dense_iter] < profile.push_fetch[dense_iter]
        # The offload direction switches: the sparse head runs push.
        directions = profile.offload_directions()
        assert directions[dense_iter] == "pull"
        assert directions[0] == "push"
        assert set(directions) == {"push", "pull"}

    def test_adaptive_dominates_fixed_modes(self, profile):
        totals = profile.totals()
        assert totals["adaptive"] <= min(
            totals["push-offload"],
            totals["pull-offload"],
            totals["push-fetch"],
            totals["pull-fetch"],
        )
        auto = int(profile.auto_offload_bytes().sum())
        assert auto <= totals["push-offload"]
        assert auto <= totals["pull-offload"]

    def test_best_mode_labels(self, profile):
        modes = profile.best_mode_per_iteration()
        assert len(modes) == profile.iterations
        assert all(
            m in ("push-offload", "pull-offload", "push-fetch", "pull-fetch")
            for m in modes
        )
        auto = profile.auto_offload_bytes()
        for t, direction in enumerate(profile.offload_directions()):
            push, pull = profile.push_offload[t], profile.pull_offload[t]
            assert direction == ("push" if push <= pull else "pull")
            assert auto[t] == min(push, pull)

    def test_path_graph_pull_never_wins(self):
        # Tiny frontiers every iteration: push costs almost nothing, pull
        # pays the bitmap broadcast every time.
        g = path_graph(32, directed=True)
        fetch, offload = bfs_replays(g, 0, 4)
        profile = profile_of(g, fetch, offload, 4)
        assert profile.iterations == 32
        assert np.all(profile.push_fetch <= profile.pull_offload)
        assert set(profile.offload_directions()) == {"push"}

    def test_shape_validation(self, twitter_tiny, bfs_runs):
        fetch, offload = bfs_runs
        with pytest.raises(ReproError, match="shape"):
            direction_profile(
                twitter_tiny,
                np.zeros(3),
                BFS(),
                num_parts=8,
                push_offload_bytes=offload.per_iteration_bytes(),
                push_fetch_bytes=fetch.per_iteration_bytes(),
            )
        with pytest.raises(ReproError, match="differ in length"):
            direction_profile(
                twitter_tiny,
                fetch.result_property(),
                BFS(),
                num_parts=8,
                push_offload_bytes=offload.per_iteration_bytes(),
                push_fetch_bytes=fetch.per_iteration_bytes()[:-1],
            )

    def test_empty_run_rejected(self, twitter_tiny):
        source = int(twitter_tiny.out_degrees.argmax())
        fetch, offload = bfs_replays(twitter_tiny, source, 4, max_iterations=0)
        with pytest.raises(ReproError, match="no iterations"):
            profile_of(twitter_tiny, fetch, offload, 4)
        # An isolated source's run is one iteration that discovers nothing,
        # and it runs push.
        g = path_graph(5, directed=True)
        fetch, offload = bfs_replays(g, 4, 2)
        profile = profile_of(g, fetch, offload, 2)
        assert profile.iterations == 1
        assert profile.discovered.tolist() == [0]
        assert profile.offload_directions() == ["push"]
