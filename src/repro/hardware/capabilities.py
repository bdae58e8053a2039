"""Offload legality: can this device execute this kernel phase?

Section IV.A's first missing mechanism is an API to control *which*
operations are offloaded; the precondition is knowing which offloads are
legal at all.  A kernel phase is offloadable to a device only when the
device supports every operation class the phase uses (FP arithmetic,
complex integer ops) — e.g. PageRank's FP traversal cannot run on UPMEM
DPUs or a Tofino switch, but fits CXL-PNM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import CapabilityError
from repro.hardware.device import DeviceClass, DeviceModel
from repro.kernels.base import VertexProgram


@dataclass(frozen=True)
class OffloadCheck:
    """Result of a capability check, with the reasons on failure."""

    device: str
    kernel: str
    phase: str
    allowed: bool
    reasons: Tuple[str, ...] = ()

    def raise_if_denied(self) -> None:
        """Raise :class:`CapabilityError` when the offload is illegal."""
        if not self.allowed:
            raise CapabilityError(
                f"cannot offload {self.kernel}/{self.phase} to {self.device}: "
                + "; ".join(self.reasons)
            )


def check_offload(
    kernel: VertexProgram, device: DeviceModel, *, phase: str = "traverse"
) -> OffloadCheck:
    """Check whether ``phase`` of ``kernel`` may run on ``device``.

    Phases: ``"traverse"`` (edge processing + local reduce near data),
    ``"apply"`` (property update), ``"aggregate"`` (in-network reduction of
    partial updates — needs only the reduce operator).
    """
    if phase not in ("traverse", "apply", "aggregate"):
        raise CapabilityError(f"unknown phase {phase!r}")
    reasons: list[str] = []

    if phase == "aggregate":
        # Reduction only: the operator must be expressible on the ALUs.
        if _reduce_needs_fp(kernel) and not device.supports_fp:
            reasons.append("reduction is floating-point but device lacks FP")
        if device.device_class is DeviceClass.HOST:
            reasons.append("aggregation offload targets non-host devices")
    else:
        needs_fp = kernel.compute.needs_fp
        needs_muldiv = kernel.compute.needs_int_muldiv
        if needs_fp and not device.supports_fp:
            reasons.append("kernel needs floating point; device lacks FP support")
        if needs_muldiv and not device.supports_int_muldiv:
            reasons.append(
                "kernel needs integer multiply/divide; device has primitive "
                "integer support only"
            )
        if device.device_class is DeviceClass.INC and phase == "traverse":
            reasons.append(
                "switch ASICs have no attached edge storage; traversal cannot "
                "run in-network"
            )
        if device.aggregate_ops_per_second <= 0:
            reasons.append("device has no compute units")

    return OffloadCheck(
        device=device.name,
        kernel=kernel.name,
        phase=phase,
        allowed=not reasons,
        reasons=tuple(reasons),
    )


def _reduce_needs_fp(kernel: VertexProgram) -> bool:
    # Sum of FP contributions needs FP ALUs; min/max of ids or distances can
    # be compared bitwise for non-negative values, but FP distances still
    # need FP compare.
    return kernel.compute.needs_fp


def supported_kernels(
    device: DeviceModel, kernels: Tuple[VertexProgram, ...], *, phase: str = "traverse"
) -> Tuple[str, ...]:
    """Names of the kernels whose ``phase`` the device can host."""
    return tuple(
        k.name for k in kernels if check_offload(k, device, phase=phase).allowed
    )
