"""End-to-end bit-identity: every kernel × all four simulators × backends.

One workload is recorded per (kernel, backend) and replayed through all
four architecture simulators; the resulting property arrays and the full
movement-ledger breakdowns must be byte-identical across backends.  On a
numpy-only machine the explicit ``numpy`` and ``numba``-with-fallback
selections still go through the seam, so this suite guards the seam
itself (the refactor must be invisible); with numba installed the same
assertions pin compiled-vs-oracle identity.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.distributed import DistributedSimulator
from repro.arch.distributed_ndp import DistributedNDPSimulator
from repro.arch.trace import record_trace
from repro.backend import numba_available, reset_backend_state
from repro.kernels.registry import get_kernel, list_kernels
from repro.runtime.config import SystemConfig

ENGINE_KERNELS = sorted(
    name for name in list_kernels() if get_kernel(name).supports_engine
)

#: backends compared against the numpy oracle; the explicit "numba"
#: selection is meaningful either way (compiled when installed, the
#: warn-once fallback seam when not)
CHALLENGERS = ("auto", "numba")


def run_everything(graph, kernel_name, backend):
    """Record once with ``backend``, replay all four simulators.

    Returns ``(result digest, ledger digest)`` covering the kernel's
    final property array and every architecture's movement breakdown.
    """
    kernel = get_kernel(kernel_name)
    source = (
        int(graph.out_degrees.argmax()) if kernel.needs_source else None
    )
    with warnings.catch_warnings():
        # explicit "numba" without numba warns once by design
        warnings.simplefilter("ignore", RuntimeWarning)
        trace = record_trace(
            graph,
            kernel,
            num_parts=4,
            source=source,
            max_iterations=8,
            seed=3,
            backend=backend,
        )
    cfg = SystemConfig(num_memory_nodes=4, backend=backend)
    ndp_cfg = cfg.with_options(enable_inc=True)
    runs = [
        DistributedSimulator(cfg).replay(trace),
        DistributedNDPSimulator(cfg).replay(trace),
        DisaggregatedSimulator(cfg).replay(trace),
        DisaggregatedNDPSimulator(ndp_cfg).replay(trace),
    ]
    result = np.ascontiguousarray(kernel.result(trace.final_state))
    result_digest = hashlib.sha256(result.tobytes()).hexdigest()
    ledger_digest = hashlib.sha256(
        json.dumps(
            {run.architecture: run.ledger.breakdown() for run in runs},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return result_digest, ledger_digest


@pytest.fixture(autouse=True)
def _fresh_backend_state():
    reset_backend_state()
    yield
    reset_backend_state()


@pytest.mark.parametrize("kernel_name", ENGINE_KERNELS)
@pytest.mark.parametrize("challenger", CHALLENGERS)
def test_backend_is_invisible_in_results_and_ledgers(
    kernel_name, challenger, tiny_rmat, weighted_er, request
):
    graph = (
        weighted_er
        if get_kernel(kernel_name).uses_weights
        else tiny_rmat
    )
    oracle = run_everything(graph, kernel_name, "numpy")
    challenged = run_everything(graph, kernel_name, challenger)
    assert challenged == oracle, (
        f"{kernel_name} under backend={challenger!r} diverged from the "
        "numpy oracle"
    )


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
@pytest.mark.parametrize("kernel_name", ENGINE_KERNELS)
def test_compiled_run_is_bit_identical(kernel_name, tiny_rmat, weighted_er):
    """With numba installed, the compiled path itself must match."""
    from repro.backend import resolve_backend

    assert resolve_backend("numba").name == "numba"
    graph = (
        weighted_er if get_kernel(kernel_name).uses_weights else tiny_rmat
    )
    assert run_everything(graph, kernel_name, "numba") == run_everything(
        graph, kernel_name, "numpy"
    )


def test_run_span_carries_backend_attrs(tiny_rmat):
    """The run span exposes backend name, fusion, and compile seconds;
    plan-cache hits and misses are counted in METRICS instead, because
    they record process history rather than run structure."""
    from repro.obs.metrics import METRICS, M
    from repro.obs.span import Tracer, use_tracer

    def lookups():
        return (
            METRICS.counter(M.BACKEND_PLAN_HITS).value
            + METRICS.counter(M.BACKEND_PLAN_MISSES).value
        )

    cfg = SystemConfig(num_memory_nodes=4, backend="numpy")
    before = lookups()
    tracer = Tracer()
    with use_tracer(tracer):
        DisaggregatedSimulator(cfg).run(
            tiny_rmat, get_kernel("pagerank"), max_iterations=2, seed=3
        )
    run_spans = [s for s in tracer.spans if s.name == "run"]
    assert run_spans, "simulator run must record a run span"
    attrs = run_spans[0].attrs
    assert attrs["backend"] == "numpy"
    assert attrs["backend_fused"] is False
    assert attrs["backend_compile_seconds"] == 0.0
    assert "backend_plan_cached" not in attrs
    assert lookups() == before + 1
