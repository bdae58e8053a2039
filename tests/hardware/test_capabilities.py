"""Offload legality checks: which kernels fit which Table I devices."""

import pytest

from repro.errors import CapabilityError
from repro.hardware.capabilities import check_offload, supported_kernels
from repro.hardware.catalog import (
    CXL_CMS,
    HOST_XEON,
    SHARP_SWITCH,
    SWITCHML_TOFINO,
    UPMEM_PIM,
)
from repro.kernels.bfs import BFS
from repro.kernels.cc import ConnectedComponents
from repro.kernels.pagerank import PageRank
from repro.kernels.sssp import SSSP


class TestTraverseOffload:
    def test_pagerank_on_pnm_allowed(self):
        assert check_offload(PageRank(), CXL_CMS).allowed

    def test_pagerank_on_upmem_denied(self):
        # Primitive FP support: the paper's "may restrict usability".
        check = check_offload(PageRank(), UPMEM_PIM)
        assert not check.allowed
        assert any("floating point" in r for r in check.reasons)

    def test_cc_on_upmem_allowed(self):
        assert check_offload(ConnectedComponents(), UPMEM_PIM).allowed

    def test_bfs_on_upmem_allowed(self):
        assert check_offload(BFS(), UPMEM_PIM).allowed

    def test_sssp_on_upmem_denied(self):
        assert not check_offload(SSSP(), UPMEM_PIM).allowed

    def test_traverse_on_switch_denied(self):
        check = check_offload(ConnectedComponents(), SWITCHML_TOFINO)
        assert not check.allowed
        assert any("edge storage" in r for r in check.reasons)

    def test_raise_if_denied(self):
        check = check_offload(PageRank(), UPMEM_PIM)
        with pytest.raises(CapabilityError, match="cannot offload"):
            check.raise_if_denied()

    def test_allowed_check_does_not_raise(self):
        check_offload(PageRank(), CXL_CMS).raise_if_denied()

    def test_unknown_phase(self):
        with pytest.raises(CapabilityError, match="unknown phase"):
            check_offload(PageRank(), CXL_CMS, phase="dream")


class TestAggregateOffload:
    def test_fp_reduction_needs_fp_switch(self):
        assert check_offload(PageRank(), SHARP_SWITCH, phase="aggregate").allowed
        assert not check_offload(
            PageRank(), SWITCHML_TOFINO, phase="aggregate"
        ).allowed

    def test_integer_reduction_fits_tofino(self):
        assert check_offload(
            ConnectedComponents(), SWITCHML_TOFINO, phase="aggregate"
        ).allowed

    def test_host_not_an_aggregation_target(self):
        assert not check_offload(PageRank(), HOST_XEON, phase="aggregate").allowed


class TestSupportedKernels:
    def test_upmem_integer_kernels_only(self):
        kernels = (PageRank(), ConnectedComponents(), SSSP(), BFS())
        assert supported_kernels(UPMEM_PIM, kernels) == ("cc", "bfs")

    def test_pnm_hosts_all_four(self):
        kernels = (PageRank(), ConnectedComponents(), SSSP(), BFS())
        assert supported_kernels(CXL_CMS, kernels) == (
            "pagerank",
            "cc",
            "sssp",
            "bfs",
        )
