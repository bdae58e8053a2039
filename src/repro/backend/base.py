"""Execution-backend seam for the engine's per-edge hot loops.

The engine's runtime is dominated by three primitives — the ragged gather
that expands a frontier into its edge arrays, the scatter-reduce that folds
per-edge messages into the per-vertex accumulator, and the fused
traverse+reduce that avoids materializing the |E|-sized message array at
all.  :class:`ExecutionBackend` names exactly those three operations
(``gather_frontier_edges``, ``segment_reduce``, ``apply_numeric``) so that
implementations can specialize them to the executing device while the
engine's control flow, profiling, and accounting stay untouched.

Two implementations ship:

* :class:`repro.backend.numpy_backend.NumpyBackend` — the current NumPy
  code extracted verbatim.  It is the default and the **oracle**: every
  other backend must be bit-identical to it on every kernel × simulator
  cell (the reduction order is part of the contract, not just the values).
* :class:`repro.backend.numba_backend.NumbaBackend` — ``@njit`` loops
  (parallel where safe, ``cache=True``), selected per run via
  ``--backend numba`` / ``RunSpec(backend=...)`` and falling back to numpy
  when Numba is missing or a combination cannot be compiled.

Backends follow a compile-once/execute-many idiom: :meth:`plan` builds an
:class:`ExecutionPlan` per ``(kernel, graph content digest, index dtype)``
on first use and caches it in-process, so JIT cost is paid once per sweep
rather than once per task.  The plan records the backend chosen, whether
the fused path is active, and the compile time — the observability layer
attaches these to the run span.  Plan-cache hits and misses are process
history, not run structure, so they are counted in the ``METRICS``
registry (``backend.plan-cache.hits``/``.misses``) instead.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.base import KernelState, VertexProgram
from repro.obs.metrics import METRICS, M

#: Operations a backend must provide for a kernel to run through it; the
#: names match :attr:`repro.kernels.base.VertexProgram.backend_primitives`.
PRIMITIVES = ("gather_frontier_edges", "segment_reduce", "apply_numeric")


@dataclass(frozen=True)
class ExecutionPlan:
    """Compile-once record for one (kernel, graph, backend) combination.

    ``fused`` says whether :meth:`ExecutionBackend.apply_numeric` will
    handle this kernel's declared edge op (skipping message
    materialization); ``compile_seconds`` is the one-time specialization
    cost (0.0 for interpreters); ``cached`` is ``True`` when the plan came
    from the in-process cache rather than a fresh build.
    """

    backend: str
    kernel: str
    reduce: str
    index_dtype: str
    weighted: bool
    fused: bool
    compile_seconds: float
    cached: bool = False


_PlanKey = Tuple[str, str, str, str, str, bool]

#: In-process plan cache — one entry per (backend, kernel name, reduce op,
#: graph content digest, index dtype, weighted).  Keyed by content digest
#: rather than graph identity so re-loaded graphs reuse the compiled plan.
_PLAN_CACHE: Dict[_PlanKey, ExecutionPlan] = {}


def clear_plan_cache() -> None:
    """Drop every cached :class:`ExecutionPlan` (test helper)."""
    _PLAN_CACHE.clear()


def plan_cache_size() -> int:
    """Number of plans currently cached in-process."""
    return len(_PLAN_CACHE)


class ExecutionBackend(abc.ABC):
    """Narrow kernel-execution API behind which hot loops are swappable.

    All three primitives are **order-preserving**: they must visit edges in
    array order, because summation order is observable in float64 and the
    numpy oracle's ``ufunc.at`` semantics define the reference order.
    """

    #: registry name, e.g. ``"numpy"``
    name: str = "abstract"

    @abc.abstractmethod
    def gather_frontier_edges(
        self, values: np.ndarray, starts: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Ragged gather: concatenation of ``values[starts[i] : starts[i] + lens[i]]``.

        Used to expand CSR slices (destination ids, edge weights) for a
        frontier.  A pure copy — safe to parallelize across slices.
        """

    @abc.abstractmethod
    def segment_reduce(
        self, acc: np.ndarray, idx: np.ndarray, values: np.ndarray, op: str
    ) -> None:
        """Reduce ``values`` into ``acc`` at positions ``idx``, in array order.

        ``op`` is one of ``sum``/``min``/``max``; semantics (and for
        ``sum``, accumulation order) must match the unbuffered
        ``np.<ufunc>.at`` the oracle uses.
        """

    def apply_numeric(
        self,
        kernel: VertexProgram,
        state: KernelState,
        acc: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> bool:
        """Fused traverse+reduce of one edge batch into ``acc``.

        Implementations that can evaluate ``kernel.edge_op`` inline reduce
        every edge's message into ``acc`` (same order, same float ops as
        ``edge_messages`` + :meth:`segment_reduce`) and return ``True``.
        Returning ``False`` tells the engine to materialize messages via
        ``kernel.edge_messages`` and reduce them with
        :meth:`segment_reduce` instead — the oracle path.
        """
        return False

    # ------------------------------------------------------------------ #
    # Compile-once plans
    # ------------------------------------------------------------------ #

    def plan(self, kernel: VertexProgram, graph: CSRGraph) -> ExecutionPlan:
        """Return the (cached) execution plan for ``kernel`` on ``graph``.

        Raises :class:`repro.errors.BackendUnsupported` when this backend
        cannot specialize the combination; callers fall back to numpy.
        """
        key = self._plan_key(kernel, graph)
        hit = _PLAN_CACHE.get(key)
        if hit is not None:
            METRICS.counter(M.BACKEND_PLAN_HITS).inc()
            return dataclasses.replace(hit, cached=True)
        METRICS.counter(M.BACKEND_PLAN_MISSES).inc()
        plan = self._build_plan(kernel, graph)
        _PLAN_CACHE[key] = plan
        return plan

    def _plan_key(self, kernel: VertexProgram, graph: CSRGraph) -> _PlanKey:
        return (
            self.name,
            kernel.name,
            kernel.message.reduce,
            graph.digest,
            str(graph.index_dtype),
            graph.has_weights,
        )

    @abc.abstractmethod
    def _build_plan(
        self, kernel: VertexProgram, graph: CSRGraph
    ) -> ExecutionPlan:
        """Specialize the primitives for ``kernel`` on ``graph`` (uncached)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
