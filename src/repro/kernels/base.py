"""The vertex-program abstraction shared by every architecture simulator.

The paper's workload model (Section III) deploys graph kernels iteratively:
each iteration has a *traversal* phase that walks the edge lists of the
current frontier and emits small update messages, and an *update* (apply)
phase that reduces those messages into the vertex properties and derives the
next frontier.  :class:`VertexProgram` encodes one kernel in exactly those
terms, together with the wire sizes and per-operation compute costs the
data-movement and timing models need:

* ``message`` — the wire format and reduction operator of one update
  (PageRank: 8 B id + 8 B value = 16 B, reduce ``sum`` — Section IV.A);
* ``prop_push_bytes`` — bytes to propagate one frontier vertex's property to
  a memory node when the traversal is offloaded;
* ``compute`` — FLOP/integer-op counts per edge and per vertex update, plus
  the capability flags (FP, integer multiply/divide) that decide whether a
  device from Table I can run the phase at all.

The numeric semantics live in three hooks (``edge_messages``, ``apply``,
``update_frontier``), all vectorized over NumPy arrays.  Every simulator
drives the same hooks, so all four architectures produce bit-identical
results and differ only in placement, movement, and timing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import KernelError
from repro.graph.csr import CSRGraph

#: Bytes of a vertex id on the wire (paper uses 8 B ids throughout).
VERTEX_ID_BYTES = 8

_REDUCE_OPS = ("sum", "min", "max")

@dataclass(frozen=True)
class MessageSpec:
    """Wire format and reduction semantics of one update message."""

    value_bytes: int
    reduce: str
    id_bytes: int = VERTEX_ID_BYTES

    def __post_init__(self) -> None:
        if self.reduce not in _REDUCE_OPS:
            raise KernelError(
                f"reduce must be one of {_REDUCE_OPS}, got {self.reduce!r}"
            )
        if self.value_bytes < 0 or self.id_bytes < 0:
            raise KernelError("message byte sizes must be >= 0")

    @property
    def wire_bytes(self) -> int:
        """Bytes of one (vertex id, value) update on the wire."""
        return self.id_bytes + self.value_bytes

    @property
    def identity(self) -> float:
        """Identity element of the reduction."""
        if self.reduce == "sum":
            return 0.0
        if self.reduce == "min":
            return np.inf
        return -np.inf

    def combine_at(self, acc: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
        """Reduce ``vals`` into ``acc`` at positions ``idx`` (unbuffered)."""
        if self.reduce == "sum":
            np.add.at(acc, idx, vals)
        elif self.reduce == "min":
            np.minimum.at(acc, idx, vals)
        else:
            np.maximum.at(acc, idx, vals)


@dataclass(frozen=True)
class ComputeProfile:
    """Per-operation compute costs and device-capability requirements."""

    traverse_flops_per_edge: float = 0.0
    traverse_intops_per_edge: float = 1.0
    apply_flops_per_update: float = 0.0
    apply_intops_per_update: float = 1.0
    needs_fp: bool = False
    needs_int_muldiv: bool = False

    def traverse_ops(self, edges: int) -> float:
        """Total traversal-phase operations for ``edges`` traversed edges."""
        return edges * (self.traverse_flops_per_edge + self.traverse_intops_per_edge)

    def apply_ops(self, updates: int) -> float:
        """Total apply-phase operations for ``updates`` reduced updates."""
        return updates * (self.apply_flops_per_update + self.apply_intops_per_update)


@dataclass
class KernelState:
    """Mutable per-run state: property arrays, frontier, iteration counter."""

    graph: CSRGraph
    props: Dict[str, np.ndarray] = field(default_factory=dict)
    frontier: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    iteration: int = 0
    converged: bool = False
    scalars: Dict[str, float] = field(default_factory=dict)
    _scratch: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _scratch_identity: float = field(default=0.0, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def scratch_accumulator(self, identity: float) -> np.ndarray:
        """Persistent ``float64[n]`` reduction buffer, pre-filled with ``identity``.

        Allocated (and filled) once per run instead of a fresh
        ``np.full(n)`` every iteration.  Contract: the caller must restore
        every slot it dirtied back to ``identity`` before the next call —
        the engine resets exactly the touched destinations after reading
        the reduced values out.
        """
        if (
            self._scratch is None
            or self._scratch.size != self.num_vertices
            or self._scratch_identity != identity
        ):
            self._scratch = np.full(self.num_vertices, identity)
            self._scratch_identity = identity
        return self._scratch

    def prop(self, name: str) -> np.ndarray:
        """Property array by name."""
        try:
            return self.props[name]
        except KeyError:
            raise KernelError(f"kernel state has no property {name!r}") from None


class VertexProgram(abc.ABC):
    """One analytics kernel expressed as traverse/apply/update operators."""

    #: registry name, e.g. ``"pagerank"``
    name: str = "abstract"
    #: wire format of one update message
    message: MessageSpec = MessageSpec(value_bytes=8, reduce="sum")
    #: bytes to push one frontier vertex's property near-data (id + value)
    prop_push_bytes: int = 16
    #: whether the offloaded traversal reads pushed property *values* of the
    #: frontier (PageRank ranks, CC labels).  Kernels that only need
    #: frontier membership (BFS: the message is the source id, locally
    #: known) can ship a compact frontier — ids, or a bitmap when denser.
    pushes_values: bool = True
    #: compute cost model
    compute: ComputeProfile = ComputeProfile()
    #: run on the symmetrized graph (undirected semantics, e.g. WCC)
    requires_symmetric: bool = False
    #: consume edge weights (engine substitutes 1.0 when the graph has none)
    uses_weights: bool = False
    #: needs a source vertex argument
    needs_source: bool = False
    #: safety valve for non-converging parameterizations
    max_iterations: int = 1000

    # ------------------------------------------------------------------ #
    # Numeric hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def initial_state(
        self, graph: CSRGraph, *, source: Optional[int] = None
    ) -> KernelState:
        """Build the initial property arrays and frontier."""

    @abc.abstractmethod
    def edge_messages(
        self,
        state: KernelState,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Traversal phase: message value per edge (vectorized).

        ``src``/``dst``/``weights`` are parallel per-edge arrays covering
        every out-edge of the current frontier.
        """

    @abc.abstractmethod
    def apply(
        self,
        state: KernelState,
        touched: np.ndarray,
        reduced: np.ndarray,
    ) -> np.ndarray:
        """Update phase: fold reduced messages into properties.

        ``touched`` are the distinct destinations that received at least one
        message this iteration; ``reduced`` the reduction results aligned
        with them.  Returns the ids of vertices whose property changed.
        """

    def update_frontier(
        self, state: KernelState, changed: np.ndarray
    ) -> np.ndarray:
        """Next frontier; default = the changed vertices."""
        return changed

    def has_converged(self, state: KernelState) -> bool:
        """Convergence test run after each iteration (default: empty frontier)."""
        return state.frontier.size == 0

    @abc.abstractmethod
    def result(self, state: KernelState) -> np.ndarray:
        """The kernel's output property array."""

    # ------------------------------------------------------------------ #

    def check_source(self, graph: CSRGraph, source: Optional[int]) -> int:
        """Validate the source argument for source-rooted kernels."""
        if not self.needs_source:
            raise KernelError(f"{self.name} does not take a source vertex")
        if source is None:
            raise KernelError(f"{self.name} requires a source vertex")
        if not 0 <= source < graph.num_vertices:
            raise KernelError(
                f"source {source} out of range [0, {graph.num_vertices})"
            )
        return int(source)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
