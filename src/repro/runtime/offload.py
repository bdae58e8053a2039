"""Offload policies — when to process near data (Sections IV.A and IV.D).

The paper's central runtime finding is that "offload is not always the
better option" and the winner "can vary even across iterations of the same
graph application".  A policy decides, before each iteration runs, whether
the traversal executes on the NDP memory nodes (offload) or on the hosts
after an edge fetch, for all memory nodes at once or node by node.  The
policy sees an :class:`IterationOutlook` — the frontier statistics a real
runtime can compute cheaply — and, for the idealized oracles, the exact
counts the simulator knows.  Once the iteration is accounted it observes
what moved.
"""

from __future__ import annotations

import abc
import difflib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, NamedTuple, Optional, Tuple, Type, Union

import numpy as np

from repro.errors import ConfigError
from repro.kernels.base import VERTEX_ID_BYTES, VertexProgram
from repro.net.switch import SwitchModel
from repro.runtime.cost_model import (
    edge_record_bytes,
    estimate_distinct_destinations,
    estimate_distinct_destinations_per_part,
    exact_movement,
    frontier_push_bytes,
)


@dataclass(frozen=True)
class IterationOutlook:
    """What the runtime knows before an iteration executes.

    The first block is cheaply computable from the frontier and the
    partition map (the paper's proposed heuristics); the ``exact_*`` block
    is only read by the oracle policies.
    """

    iteration: int
    frontier_size: int
    edges_traversed: int  # Σ outdeg over the frontier
    num_vertices: int
    num_parts: int
    edges_per_part: np.ndarray  # Σ outdeg over the frontier, per memory node
    frontier_per_part: np.ndarray  # frontier vertices per memory node
    #: ``bool[num_parts]`` — memory nodes whose NDP device is currently out
    #: of service (fault injection); ``None`` when no faults are active.
    #: Policies may ignore it: the simulator enforces the fallback anyway.
    failed_parts: Optional[np.ndarray] = None
    # -- oracle-only fields --------------------------------------------- #
    exact_partial_pairs: Optional[int] = None
    exact_distinct_destinations: Optional[int] = None
    exact_updates_per_destination: Optional[np.ndarray] = None
    exact_partials_per_part: Optional[np.ndarray] = None

    @property
    def avg_frontier_degree(self) -> float:
        """Mean out-degree across the frontier."""
        if self.frontier_size == 0:
            return 0.0
        return self.edges_traversed / self.frontier_size

    @cached_property
    def occupancy(self) -> "Occupancy":
        """The balls-in-bins estimates, computed once per outlook: ``decide``
        and ``observe`` of one iteration both read them."""
        per_part = estimate_distinct_destinations_per_part(
            self.edges_per_part, self.num_vertices
        )
        return Occupancy(
            pairs_per_part=per_part,
            # Summed left to right in part order; np.sum adds pairwise and
            # can round differently.
            pairs=sum(per_part.tolist()),
            distinct=estimate_distinct_destinations(
                self.edges_traversed, self.num_vertices
            ),
        )


class Occupancy(NamedTuple):
    """Uncalibrated occupancy estimates of one iteration's update counts."""

    #: partial updates (distinct destinations) of each memory node
    pairs_per_part: np.ndarray
    #: their sum over the memory nodes
    pairs: float
    #: distinct destinations over the whole frontier
    distinct: float


class OffloadPolicy(abc.ABC):
    """Strategy interface: where this iteration's traversal runs.

    The simulator calls :meth:`decide` once before every iteration and
    :meth:`observe` once after accounting it.
    """

    name: str = "abstract"
    #: the policy's explanation of its most recent decision (a plain dict,
    #: or ``None`` for policies that do not explain themselves).  The
    #: simulator merges it into the iteration span's ``decision`` attrs.
    last_decision: Optional[Dict[str, Any]] = None

    @abc.abstractmethod
    def decide(
        self,
        kernel: VertexProgram,
        outlook: IterationOutlook,
        *,
        switch: Optional[SwitchModel] = None,
        inc_enabled: bool = False,
    ) -> Union[bool, np.ndarray]:
        """Return True to offload every memory node's traversal near-data,
        False to fetch everywhere, or a ``bool[num_parts]`` mask of the
        nodes that offload — the paper's §IV asks which operations run
        near-data "and where"."""

    def observe(
        self,
        outlook: IterationOutlook,
        *,
        partial_pairs: int,
        distinct_destinations: int,
        host_link_bytes: float,
        offloaded_mask: np.ndarray,
    ) -> bool:
        """Feedback on the iteration just accounted.

        ``partial_pairs``/``distinct_destinations`` are its realized update
        counts, ``host_link_bytes`` the movement ledger's bytes, and
        ``offloaded_mask`` the mask that executed (which may differ from
        the decision after capability or fault denials).  Returns True
        when the policy moved its byte-level calibration; no-op returning
        False by default.
        """
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AlwaysOffload(OffloadPolicy):
    """Static policy: offload every iteration (the naive NDP deployment)."""

    name = "always"

    def decide(self, kernel, outlook, *, switch=None, inc_enabled=False) -> bool:
        return True


class NeverOffload(OffloadPolicy):
    """Static policy: never offload (the passive-memory-pool deployment)."""

    name = "never"

    def decide(self, kernel, outlook, *, switch=None, inc_enabled=False) -> bool:
        return False


class ThresholdPolicy(OffloadPolicy):
    """Offload when the frontier's average out-degree clears a threshold.

    The simplest §IV.D heuristic: dense frontiers favor offload because
    fetching many edges costs more than shipping one update per
    destination.  The default threshold is the break-even degree of the
    16 B-update / 8 B-edge PageRank accounting (~wire/edge ≈ 2-4).
    """

    name = "threshold"

    def __init__(self, min_avg_degree: float = 4.0) -> None:
        if min_avg_degree < 0:
            raise ConfigError(
                f"min_avg_degree must be >= 0, got {min_avg_degree}"
            )
        self.min_avg_degree = float(min_avg_degree)

    def decide(self, kernel, outlook, *, switch=None, inc_enabled=False) -> bool:
        return outlook.avg_frontier_degree >= self.min_avg_degree


def _per_part_costs(
    kernel: VertexProgram, outlook: IterationOutlook, update_bytes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(offload, fetch)`` bytes per memory node.

    Offloading node ``p`` pushes its frontier's properties down and ships
    ``update_bytes[p]`` of partial updates; fetching it requests its
    frontier's edge lists and receives them.
    """
    frontier = np.asarray(outlook.frontier_per_part, dtype=np.float64)
    edges = np.asarray(outlook.edges_per_part, dtype=np.float64)
    push_per_vertex = (
        kernel.prop_push_bytes if kernel.pushes_values else VERTEX_ID_BYTES
    )
    offload = push_per_vertex * frontier + update_bytes
    fetch = VERTEX_ID_BYTES * frontier + edge_record_bytes(kernel) * edges
    return offload, fetch


class DynamicCostPolicy(OffloadPolicy):
    """Per-iteration cost-model decision (the paper's proposed mechanism).

    Estimates fetch vs offload bytes from frontier size, frontier degree
    mass, and the per-partition edge distribution — all computable by a
    real runtime — and picks the cheaper side.

    The occupancy estimate assumes uniformly random destinations, which
    over-counts distinct destinations on skewed graphs (hubs absorb many
    edges).  A real runtime sees the actual update counts at the end of
    every iteration, so the policy calibrates: it keeps an exponential
    moving average of the realized/estimated ratio and scales subsequent
    estimates by it.
    """

    name = "dynamic"

    def __init__(self, *, calibrate: bool = True, ema_alpha: float = 0.5) -> None:
        if not 0.0 < ema_alpha <= 1.0:
            raise ConfigError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.calibrate = calibrate
        self.ema_alpha = float(ema_alpha)
        self._pairs_correction = 1.0
        self._distinct_correction = 1.0

    def decide(self, kernel, outlook, *, switch=None, inc_enabled=False) -> bool:
        est = exact_movement(
            kernel,
            frontier_size=outlook.frontier_size,
            edges_traversed=outlook.edges_traversed,
            partial_pairs=outlook.occupancy.pairs,
            distinct_destinations=outlook.occupancy.distinct,
            num_vertices=outlook.num_vertices,
            num_parts=outlook.num_parts,
        )
        # Re-derive the update-dependent parts with the learned corrections.
        wire = kernel.message.wire_bytes
        push = frontier_push_bytes(
            kernel,
            outlook.frontier_size,
            num_vertices=outlook.num_vertices,
            num_parts=outlook.num_parts,
        )
        raw_pairs = (est.offload_bytes - push) / wire if wire else 0.0
        raw_distinct = (est.offload_inc_bytes - push) / wire if wire else 0.0
        offload = push + wire * raw_pairs * self._pairs_correction
        offload_inc = push + wire * raw_distinct * self._distinct_correction
        offload_cost = offload_inc if inc_enabled else offload
        return offload_cost < est.fetch_bytes

    def observe(self, outlook, *, partial_pairs, distinct_destinations, **_) -> bool:
        if not self.calibrate:
            return False
        _, est_pairs, est_distinct = outlook.occupancy
        a = self.ema_alpha
        if est_pairs > 0 and partial_pairs > 0:
            self._pairs_correction = (
                (1 - a) * self._pairs_correction + a * partial_pairs / est_pairs
            )
        if est_distinct > 0 and distinct_destinations > 0:
            self._distinct_correction = (
                (1 - a) * self._distinct_correction
                + a * distinct_destinations / est_distinct
            )
        return False

    def _estimated_pairs_per_part(self, outlook: IterationOutlook) -> np.ndarray:
        """Calibrated occupancy estimate of each node's partial updates."""
        return outlook.occupancy.pairs_per_part * self._pairs_correction


class OraclePolicy(OffloadPolicy):
    """Idealized policy with perfect knowledge of this iteration's counts.

    Lower-bounds achievable movement; the gap between ``dynamic`` and
    ``oracle`` measures the cost-model's estimation error.
    """

    name = "oracle"

    def decide(self, kernel, outlook, *, switch=None, inc_enabled=False) -> bool:
        if outlook.exact_partial_pairs is None:
            raise ConfigError(
                "OraclePolicy needs exact counts; run it through a simulator "
                "that fills the oracle fields"
            )
        est = exact_movement(
            kernel,
            frontier_size=outlook.frontier_size,
            edges_traversed=outlook.edges_traversed,
            partial_pairs=outlook.exact_partial_pairs,
            distinct_destinations=outlook.exact_distinct_destinations or 0,
            switch=switch if inc_enabled else None,
            updates_per_destination=outlook.exact_updates_per_destination,
        )
        offload_cost = est.offload_inc_bytes if inc_enabled else est.offload_bytes
        return offload_cost < est.fetch_bytes


class PerPartCostPolicy(DynamicCostPolicy):
    """Per-memory-node offload decisions (the paper's "which ... and where").

    Each node's traversal is offloaded independently: node ``p`` offloads
    when its own push + partial-update bytes undercut fetching its share of
    the frontier's edge lists.  Dense shards offload while sparse shards
    fetch — strictly dominating any single global decision whenever the
    per-part densities diverge.

    With ``oracle=True`` the exact per-part counts replace the calibrated
    occupancy estimate (an idealized lower bound, like :class:`OraclePolicy`).
    """

    name = "per-part"

    def __init__(self, *, oracle: bool = False, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.oracle = oracle

    def decide(
        self, kernel, outlook, *, switch=None, inc_enabled=False
    ) -> np.ndarray:
        if self.oracle and outlook.exact_partials_per_part is not None:
            pairs = np.asarray(outlook.exact_partials_per_part, dtype=np.float64)
        else:
            pairs = self._estimated_pairs_per_part(outlook)
        offload_cost, fetch_cost = _per_part_costs(
            kernel, outlook, kernel.message.wire_bytes * pairs
        )
        return offload_cost < fetch_cost


class AdaptiveOffloadPolicy(DynamicCostPolicy):
    """Closed-loop controller: per-part placement with byte-level feedback.

    This is the policy the paper's Section IV conclusion asks for.  At each
    iteration boundary it chooses, per memory node, whether traversal runs
    near-data or on the hosts, from three live feature groups:

    * frontier structure — per-part frontier and edge mass from the
      :class:`IterationOutlook` (what a real runtime computes cheaply);
    * the realized update *counts* of completed iterations, folded into the
      occupancy estimate exactly like :class:`DynamicCostPolicy`;
    * the exact movement-ledger *bytes* of completed iterations, fed back
      through :meth:`observe` — predict, observe, reweight.  The
      multiplicative ``byte_correction`` absorbs everything the analytic
      per-part model cannot see (in-network aggregation merging partials,
      push-size misestimates), so the controller converges onto the true
      byte cost of the placement it actually ran.

    Per-part failure masks are honored proactively: a part whose NDP device
    is down is planned as a fetch instead of being denied after the fact,
    so the prediction the calibration loop checks is the plan that executed.

    Every decision leaves a :attr:`last_decision` record (features,
    predicted bytes per side, correction state) that the disaggregated-NDP
    simulator attaches to the iteration span — the decision trace.
    """

    name = "adaptive"

    def __init__(self, *, calibrate: bool = True, ema_alpha: float = 0.5) -> None:
        super().__init__(calibrate=calibrate, ema_alpha=ema_alpha)
        self._byte_correction = 1.0
        #: ``(iteration, offload bytes, fetch bytes)`` of the last decision
        self._pending: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    def decide(
        self, kernel, outlook, *, switch=None, inc_enabled=False
    ) -> np.ndarray:
        pairs = self._estimated_pairs_per_part(outlook)
        # In-network aggregation merges partials across memory nodes: the
        # host-link apply traffic collapses from one update per (dest, part)
        # pair to roughly one per distinct destination.  Scale each part's
        # update bytes by that merge ratio so the estimate prices the path
        # the bytes will actually take.
        merge = 1.0
        if inc_enabled and switch is not None:
            est_pairs = float(pairs.sum())
            est_distinct = outlook.occupancy.distinct * self._distinct_correction
            if est_pairs > 0.0:
                merge = min(est_distinct / est_pairs, 1.0)
        offload_cost, fetch_cost = _per_part_costs(
            kernel, outlook, kernel.message.wire_bytes * pairs * merge
        )
        offload_cost = offload_cost * self._byte_correction
        mask = offload_cost < fetch_cost
        if outlook.failed_parts is not None:
            mask = mask & ~np.asarray(outlook.failed_parts, dtype=bool)
        self._pending = (outlook.iteration, offload_cost, fetch_cost)
        planned = int(np.count_nonzero(mask))
        predicted = float(np.where(mask, offload_cost, fetch_cost).sum())
        self.last_decision = {
            "policy": self.name,
            "iteration": outlook.iteration,
            "frontier_size": outlook.frontier_size,
            "edges_traversed": outlook.edges_traversed,
            "avg_frontier_degree": outlook.avg_frontier_degree,
            "predicted_fetch_bytes": float(fetch_cost.sum()),
            "predicted_offload_bytes": float(offload_cost.sum()),
            "predicted_plan_bytes": predicted,
            "pairs_correction": self._pairs_correction,
            "distinct_correction": self._distinct_correction,
            "byte_correction": self._byte_correction,
            "planned_offload_parts": planned,
            "failed_parts": (
                int(np.count_nonzero(outlook.failed_parts))
                if outlook.failed_parts is not None
                else 0
            ),
        }
        return mask

    def observe(self, outlook, *, host_link_bytes, offloaded_mask, **counts) -> bool:
        super().observe(outlook, **counts)
        if not self.calibrate:
            return False
        pending, self._pending = self._pending, None
        if pending is None or pending[0] != outlook.iteration:
            return False
        _, offload_cost, fetch_cost = pending
        executed = np.asarray(offloaded_mask, dtype=bool)
        predicted_offload = float(offload_cost[executed].sum())
        self.last_decision["observed_host_link_bytes"] = float(host_link_bytes)
        if predicted_offload <= 0.0:
            # Pure fetch executed: the fetch side is a closed form with no
            # estimation error, so there is nothing to reweight.
            return False
        predicted_fetch = float(fetch_cost[~executed].sum())
        realized_offload = max(float(host_link_bytes) - predicted_fetch, 0.0)
        ratio = realized_offload / predicted_offload
        # Clip pathological single-iteration ratios so one tiny frontier
        # cannot destabilize the belief.
        ratio = min(max(ratio, 0.1), 10.0)
        a = self.ema_alpha
        self._byte_correction = (1 - a) * self._byte_correction + a * ratio
        self.last_decision["byte_correction"] = self._byte_correction
        return True


_REGISTRY: Dict[str, Type[OffloadPolicy]] = {
    cls.name: cls
    for cls in (
        AlwaysOffload,
        NeverOffload,
        ThresholdPolicy,
        DynamicCostPolicy,
        OraclePolicy,
        PerPartCostPolicy,
        AdaptiveOffloadPolicy,
    )
}


def list_policies() -> tuple[str, ...]:
    """Registered policy names."""
    return tuple(sorted(_REGISTRY))


def check_policy_name(name: str) -> None:
    """Raise :class:`ConfigError` (with a did-you-mean hint, same idiom as
    the metrics registry) when ``name`` is not a registered policy."""
    if name in _REGISTRY:
        return
    hint = ""
    close = difflib.get_close_matches(str(name), _REGISTRY, n=1)
    if close:
        hint = f" — did you mean {close[0]!r}?"
    raise ConfigError(
        f"unknown offload policy {name!r}{hint} "
        f"(available: {', '.join(list_policies())})"
    )


def get_policy(name: str, **kwargs: object) -> OffloadPolicy:
    """Instantiate an offload policy by name."""
    check_policy_name(name)
    cls = _REGISTRY[name]
    try:
        return cls(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"offload policy {name!r}: {exc}") from None
