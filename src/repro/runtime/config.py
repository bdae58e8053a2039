"""System configuration shared by all architecture simulators."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.hardware.catalog import CXL_CMS, HOST_XEON, SHARP_SWITCH
from repro.hardware.device import DeviceClass, DeviceModel
from repro.net.link import DEFAULT_HOST_LINK, DEFAULT_MEMORY_LINK, Link
from repro.net.switch import SwitchModel
from repro.net.topology import ClusterTopology


@dataclass(frozen=True)
class SystemConfig:
    """Hardware/topology parameters of one deployment.

    Attributes
    ----------
    num_compute_nodes:
        hosts in the compute pool (distributed architectures ignore this
        and place compute on every partition node).
    num_memory_nodes:
        memory-pool nodes; also the partition count for pool-side placement.
    host_device / ndp_device / switch_device:
        device models for hosts, pool-side NDP units, and the switch ASIC.
        ``ndp_device=None`` models a passive memory pool.
    host_link / memory_link:
        alpha-beta link parameters.
    switch_buffer_bytes:
        aggregation-table capacity for in-network aggregation.
    enable_inc:
        turn in-network aggregation on (needs a switch device).
    overlap_fraction:
        fraction of communication a hybrid execution model (GraphQ-style)
        can hide behind compute in the distributed-NDP timing model.
    memory_budget_bytes:
        soft cap on the engine's per-iteration edge transients.  When the
        projected gather footprint exceeds it, the execute-once engine
        streams edges in CSR-ordered blocks instead of materializing them
        all at once; profiles and numerics are bit-identical either way.
        ``None`` disables streaming.
    """

    num_compute_nodes: int = 1
    num_memory_nodes: int = 8
    host_device: DeviceModel = HOST_XEON
    ndp_device: Optional[DeviceModel] = CXL_CMS
    switch_device: Optional[DeviceModel] = SHARP_SWITCH
    host_link: Link = field(default=DEFAULT_HOST_LINK)
    memory_link: Link = field(default=DEFAULT_MEMORY_LINK)
    switch_buffer_bytes: int = 64 * 1024 * 1024
    enable_inc: bool = False
    overlap_fraction: float = 0.8
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_compute_nodes < 1:
            raise ConfigError(
                f"num_compute_nodes must be >= 1, got {self.num_compute_nodes}"
            )
        if self.num_memory_nodes < 1:
            raise ConfigError(
                f"num_memory_nodes must be >= 1, got {self.num_memory_nodes}"
            )
        if self.host_device.device_class is not DeviceClass.HOST:
            raise ConfigError("host_device must be a HOST-class device")
        if self.ndp_device is not None and self.ndp_device.device_class is DeviceClass.HOST:
            raise ConfigError("ndp_device must be an NDP-class device (or None)")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ConfigError(
                f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}"
            )
        if self.enable_inc and self.switch_device is None:
            raise ConfigError("enable_inc requires a switch_device")
        if self.switch_buffer_bytes < 0:
            raise ConfigError("switch_buffer_bytes must be >= 0")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ConfigError(
                f"memory_budget_bytes must be >= 1 when set, "
                f"got {self.memory_budget_bytes}"
            )

    # ------------------------------------------------------------------ #

    def topology(self) -> ClusterTopology:
        """The star topology this config describes."""
        switch = None
        if self.switch_device is not None:
            switch = SwitchModel(
                self.switch_device, buffer_bytes=self.switch_buffer_bytes
            )
        return ClusterTopology(
            num_compute=self.num_compute_nodes,
            num_memory=self.num_memory_nodes,
            host_link=self.host_link,
            memory_link=self.memory_link,
            switch=switch,
        )

    def switch_model(self) -> Optional[SwitchModel]:
        """The switch model, or ``None`` when no switch device is configured."""
        if self.switch_device is None:
            return None
        return SwitchModel(self.switch_device, buffer_bytes=self.switch_buffer_bytes)

    def with_options(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]
