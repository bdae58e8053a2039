"""Device capability model.

Table I of the paper characterizes three NDP device classes — processing
near-memory (PNM), processing in-memory (PIM), and in-network computing
(INC) — by the capabilities that decide which graph operations they can
host: internal memory bandwidth, compute-unit count/throughput, and support
for floating-point and complex integer operations.  :class:`DeviceModel`
captures exactly those axes; the timing model in :mod:`repro.arch` consumes
the bandwidth/throughput figures, while :mod:`repro.hardware.capabilities`
enforces the operation-support flags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class DeviceClass(enum.Enum):
    """The device tiers of Table I plus the host CPU baseline."""

    HOST = "host"
    PNM = "pnm"  # processing near-memory (CXL-attached compute)
    PIM = "pim"  # processing in-memory (per-bank compute units)
    INC = "inc"  # in-network computing (switch ASIC)


@dataclass(frozen=True)
class DeviceModel:
    """Capability envelope of one device.

    Attributes
    ----------
    internal_bandwidth_bps:
        bandwidth between the device's compute units and its attached
        memory, in bytes/s (the "memory-capacity-proportional bandwidth"
        NDP provides).
    compute_units / unit_gops:
        number of processing units and per-unit throughput in giga-ops/s;
        aggregate compute = ``compute_units * unit_gops * 1e9`` ops/s.
    supports_fp:
        native floating-point arithmetic (full FP64 path assumed).
    supports_int_muldiv:
        complex integer ops (multiply/divide); UPMEM DPUs lack fast
        versions of these, restricting the kernels they can host.
    memory_capacity_bytes:
        attached memory capacity (0 for pure switch ASICs).
    """

    name: str
    device_class: DeviceClass
    internal_bandwidth_bps: float
    compute_units: int
    unit_gops: float
    supports_fp: bool
    supports_int_muldiv: bool
    memory_capacity_bytes: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.internal_bandwidth_bps < 0:
            raise ConfigError("internal_bandwidth_bps must be >= 0")
        if self.compute_units < 0 or self.unit_gops < 0:
            raise ConfigError("compute capacity must be >= 0")
        if self.memory_capacity_bytes < 0:
            raise ConfigError("memory_capacity_bytes must be >= 0")

    @property
    def aggregate_ops_per_second(self) -> float:
        """Total device throughput in operations/second."""
        return self.compute_units * self.unit_gops * 1e9

    def compute_seconds(self, ops: float) -> float:
        """Time to execute ``ops`` operations at full throughput."""
        if ops <= 0:
            return 0.0
        agg = self.aggregate_ops_per_second
        if agg <= 0:
            raise ConfigError(f"device {self.name!r} has no compute capacity")
        return ops / agg

    def memory_seconds(self, bytes_touched: float) -> float:
        """Time to stream ``bytes_touched`` through internal memory."""
        if bytes_touched <= 0:
            return 0.0
        if self.internal_bandwidth_bps <= 0:
            raise ConfigError(f"device {self.name!r} has no internal bandwidth")
        return bytes_touched / self.internal_bandwidth_bps
