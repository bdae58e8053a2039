"""Property-based tests on the switch model, policies, and cost model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import SHARP_SWITCH
from repro.kernels.pagerank import PageRank
from repro.net.switch import SwitchModel
from repro.runtime.cost_model import (
    estimate_distinct_destinations,
    estimate_movement,
    exact_movement,
)
from repro.runtime.offload import DynamicCostPolicy, IterationOutlook, ThresholdPolicy


def even_outlook(frontier, edges, n, parts):
    """An outlook whose frontier and edge mass split evenly over the parts."""
    return IterationOutlook(
        iteration=0,
        frontier_size=frontier,
        edges_traversed=edges,
        num_vertices=n,
        num_parts=parts,
        edges_per_part=np.full(parts, edges / parts),
        frontier_per_part=np.full(parts, frontier / parts),
    )


@st.composite
def aggregation_inputs(draw):
    """Self-consistent (per_part, fan-in histogram, distinct) triples:
    the fan-in entries are positive and sum to the total update count."""
    fanin = draw(st.lists(st.integers(1, 20), min_size=0, max_size=50))
    total = sum(fanin)
    parts = draw(st.integers(1, 8))
    if total == 0:
        per_part = [0] * parts
    else:
        cuts = sorted(
            draw(st.lists(st.integers(0, total), min_size=parts - 1, max_size=parts - 1))
        )
        bounds = [0] + cuts + [total]
        per_part = [b - a for a, b in zip(bounds, bounds[1:])]
    return (
        np.asarray(per_part),
        np.asarray(fanin, dtype=np.float64),
        len(fanin),
    )


@given(aggregation_inputs(), st.integers(0, 1 << 16))
@settings(max_examples=80, deadline=None)
def test_switch_conservation_properties(data, buffer_bytes):
    per_part, fanin, distinct = data
    switch = SwitchModel(SHARP_SWITCH, buffer_bytes=buffer_bytes)
    outcome = switch.aggregate(per_part, fanin if fanin.size else None, distinct, 16)
    # Updates never appear out of thin air, never exceed the input.
    assert 0 <= outcome.updates_out <= outcome.updates_in
    assert outcome.updates_in == int(per_part.sum())
    # Bytes track updates exactly.
    assert outcome.bytes_in == outcome.updates_in * 16
    assert outcome.bytes_out == outcome.updates_out * 16
    # A merge can never beat perfect aggregation...
    if outcome.updates_in:
        assert outcome.updates_out >= min(distinct, outcome.updates_in)
    # ...and achieves it exactly when the whole working set fits the table.
    if distinct and switch.capacity_slots >= distinct:
        assert outcome.updates_out == distinct
    # Reduction ops = updates merged away.
    assert outcome.reduction_ops == outcome.updates_in - outcome.updates_out


@given(
    st.integers(0, 10**6),
    st.integers(1, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_occupancy_estimate_bounds(edges, n):
    est = estimate_distinct_destinations(edges, n)
    assert 0 <= est <= min(edges, n) + 1e-9


@given(
    st.integers(0, 5000),  # frontier
    st.integers(0, 50_000),  # edges
    st.integers(0, 50_000),  # pairs
    st.integers(0, 50_000),  # distinct
)
@settings(max_examples=100, deadline=None)
def test_exact_movement_monotone(frontier, edges, pairs, distinct):
    kernel = PageRank()
    distinct = min(distinct, pairs)
    est = exact_movement(
        kernel,
        frontier_size=frontier,
        edges_traversed=edges,
        partial_pairs=pairs,
        distinct_destinations=distinct,
    )
    # INC never exceeds plain offload; all costs non-negative.
    assert 0 <= est.offload_inc_bytes <= est.offload_bytes
    assert est.fetch_bytes >= 0
    # More edges -> strictly more fetch cost.
    bigger = exact_movement(
        kernel,
        frontier_size=frontier,
        edges_traversed=edges + 1,
        partial_pairs=pairs,
        distinct_destinations=distinct,
    )
    assert bigger.fetch_bytes > est.fetch_bytes


@given(
    st.integers(1, 5000),
    st.integers(0, 100_000),
    st.integers(2, 100_000),
    st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
def test_threshold_policy_is_degree_monotone(frontier, edges, n, parts):
    outlook_sparse = even_outlook(frontier, edges, n, parts)
    outlook_dense = even_outlook(frontier, edges * 2 + frontier * 10, n, parts)
    policy = ThresholdPolicy(min_avg_degree=4.0)
    kernel = PageRank()
    if policy.decide(kernel, outlook_sparse):
        assert policy.decide(kernel, outlook_dense)


@given(
    st.integers(1, 2000),
    st.integers(1, 50_000),
    st.integers(2, 50_000),
    st.integers(1, 32),
)
@settings(max_examples=60, deadline=None)
def test_dynamic_policy_consistent_with_estimates(frontier, edges, n, parts):
    kernel = PageRank()
    outlook = even_outlook(frontier, edges, n, parts)
    decision = DynamicCostPolicy(calibrate=False).decide(kernel, outlook)
    est = estimate_movement(
        kernel,
        frontier_size=frontier,
        edges_traversed=edges,
        num_vertices=n,
        num_parts=parts,
    )
    assert decision == (est.offload_bytes < est.fetch_bytes)
