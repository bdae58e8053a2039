"""Unit tests for the vertex-program abstractions."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.kernels.base import ComputeProfile, KernelState, MessageSpec
from repro.kernels.bfs import BFS
from repro.kernels.pagerank import PageRank
from repro.kernels.registry import PAPER_KERNELS, get_kernel, list_kernels


_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _ufunc_at_case(seed, reduce_op, index_dtype, *, n=64, edges=900):
    """Random messages into ``n`` slots, reduced by the plain ``ufunc.at``."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=edges).astype(index_dtype)
    vals = rng.standard_normal(edges)
    want = np.full(n, MessageSpec(8, reduce_op).identity)
    _UFUNCS[reduce_op].at(want, idx, vals)
    return pytest.param(
        reduce_op, idx, vals, want,
        id=f"ufunc-at-{seed}-{reduce_op}-{np.dtype(index_dtype).name}",
    )


#: hand-checked cases, then fuzzed ones whose reference is the unbuffered
#: ``ufunc.at`` in array order (float64 sums are order-sensitive)
COMBINE_CASES = [
    pytest.param(op, np.array([0, 0, 1]), np.array([1.0, 2.0, 4.0]), want,
                 id=f"{op}-expected{i}")
    for i, (op, want) in enumerate(
        [("sum", [3.0, 4.0]), ("min", [1.0, 4.0]), ("max", [2.0, 4.0])]
    )
] + [
    _ufunc_at_case(seed, op, dtype)
    for seed in range(3)
    for op in ("sum", "min", "max")
    for dtype in (np.uint32, np.int64)
]


class TestMessageSpec:
    def test_wire_bytes(self):
        spec = MessageSpec(value_bytes=8, reduce="sum")
        assert spec.wire_bytes == 16

    def test_pagerank_update_is_16_bytes(self):
        # Section IV.A: PageRank updates are 16 bytes on the wire.
        assert PageRank().message.wire_bytes == 16

    def test_identities(self):
        assert MessageSpec(8, "sum").identity == 0.0
        assert MessageSpec(8, "min").identity == np.inf
        assert MessageSpec(8, "max").identity == -np.inf

    def test_bad_reduce(self):
        with pytest.raises(KernelError):
            MessageSpec(8, "xor")

    def test_unknown_reduce_op_is_named(self):
        # combine_at dispatches on a validated op, so an unknown one is
        # refused when the spec is built, and the error names it.
        with pytest.raises(KernelError, match="got 'prod'"):
            MessageSpec(8, "prod")

    def test_negative_bytes(self):
        with pytest.raises(KernelError):
            MessageSpec(-1, "sum")

    @pytest.mark.parametrize("reduce_op,idx,vals,expected", COMBINE_CASES)
    def test_combine_at(self, reduce_op, idx, vals, expected):
        spec = MessageSpec(8, reduce_op)
        acc = np.full(len(expected), spec.identity)
        spec.combine_at(acc, idx, vals)
        np.testing.assert_array_equal(acc, expected)

    def test_combine_at_duplicate_indices_unbuffered(self):
        # np.add.at semantics: every occurrence contributes.
        spec = MessageSpec(8, "sum")
        acc = np.zeros(1)
        spec.combine_at(acc, np.zeros(5, dtype=np.int64), np.ones(5))
        assert acc[0] == 5.0


class TestComputeProfile:
    def test_op_totals(self):
        p = ComputeProfile(
            traverse_flops_per_edge=1.0,
            traverse_intops_per_edge=2.0,
            apply_flops_per_update=3.0,
            apply_intops_per_update=1.0,
        )
        assert p.traverse_ops(10) == 30.0
        assert p.apply_ops(5) == 20.0

    def test_zero_edges(self):
        assert ComputeProfile().traverse_ops(0) == 0.0


class TestKernelState:
    def test_prop_lookup(self, tiny_er):
        state = KernelState(graph=tiny_er)
        state.props["x"] = np.zeros(3)
        assert state.prop("x") is state.props["x"]
        with pytest.raises(KernelError):
            state.prop("y")

    def test_num_vertices(self, tiny_er):
        assert KernelState(graph=tiny_er).num_vertices == tiny_er.num_vertices


class TestSourceValidation:
    def test_needs_source(self, tiny_er):
        with pytest.raises(KernelError, match="requires a source"):
            BFS().initial_state(tiny_er)

    def test_source_out_of_range(self, tiny_er):
        with pytest.raises(KernelError, match="out of range"):
            BFS().initial_state(tiny_er, source=tiny_er.num_vertices)

    def test_non_source_kernel_rejects_check(self, tiny_er):
        with pytest.raises(KernelError, match="does not take"):
            PageRank().check_source(tiny_er, 0)


class TestRegistry:
    def test_paper_kernels_registered(self):
        names = list_kernels()
        for name in PAPER_KERNELS:
            assert name in names

    def test_all_resolve(self):
        for name in list_kernels():
            assert get_kernel(name).name == name

    def test_kwargs_forwarded(self):
        pr = get_kernel("pagerank", damping=0.7)
        assert pr.damping == 0.7

    def test_unknown(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("quantumrank")

    def test_extension_kernels_present(self):
        names = list_kernels()
        for name in ("degree", "kcore"):
            assert name in names
