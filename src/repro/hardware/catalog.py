"""The Table I device catalog.

Numbers come from the sources the paper cites: CXL-CMS [13] (~1.1 TB/s
internal bandwidth), CXL-PNM [14] (LPDDR-based PNM with matrix/vector
units), UPMEM [15] (~1.7 TB/s aggregate across ~2560 DPUs, weak int
mul/div and primitive FP), SwitchML/Tofino [16] and SHARP/SwitchIB-2 [17]
(line-rate integer/FP ALU reduction, no attached memory pool), plus a
dual-socket Skylake host matching the paper's testbed (2x Xeon Gold 6142,
384 GB).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hardware.device import DeviceClass, DeviceModel
from repro.utils.units import GiB

TB = 10**12
GB = 10**9

HOST_XEON = DeviceModel(
    name="host-xeon",
    device_class=DeviceClass.HOST,
    internal_bandwidth_bps=0.12 * TB,  # ~6-channel DDR4-2666 per socket, x2
    compute_units=32,  # 2 x 16 cores
    unit_gops=3.0,
    supports_fp=True,
    supports_int_muldiv=True,
    memory_capacity_bytes=384 * GiB,
    description="Dual-socket Intel Xeon Gold 6142 host (the paper's testbed).",
)

CXL_CMS = DeviceModel(
    name="cxl-cms",
    device_class=DeviceClass.PNM,
    internal_bandwidth_bps=1.1 * TB,  # Table I: ~1.1 TB/s internal
    compute_units=8,
    unit_gops=16.0,  # matrix/vector computing units
    supports_fp=True,  # Table I: support for FP operations
    supports_int_muldiv=True,
    memory_capacity_bytes=512 * GiB,
    description="Computational CXL-memory solution (PNM prototype, [13]).",
)

CXL_PNM = DeviceModel(
    name="cxl-pnm",
    device_class=DeviceClass.PNM,
    internal_bandwidth_bps=1.1 * TB,
    compute_units=16,
    unit_gops=8.0,
    supports_fp=True,
    supports_int_muldiv=True,
    memory_capacity_bytes=512 * GiB,
    description="LPDDR-based CXL-PNM platform ([14]).",
)

UPMEM_PIM = DeviceModel(
    name="upmem",
    device_class=DeviceClass.PIM,
    internal_bandwidth_bps=1.7 * TB,  # Table I: ~1.7 TB/s aggregate
    compute_units=2560,  # thousands of in-order DPUs
    unit_gops=0.5,
    supports_fp=False,  # primitive FP support only
    supports_int_muldiv=False,  # limited complex integer ops
    memory_capacity_bytes=160 * GiB,
    description="Commercial PIM with thousands of in-order DPUs ([15]).",
)

SWITCHML_TOFINO = DeviceModel(
    name="switchml-tofino",
    device_class=DeviceClass.INC,
    internal_bandwidth_bps=1.6 * TB,  # 12.8 Tbps line rate
    compute_units=64,
    unit_gops=10.0,
    supports_fp=False,  # Tofino aggregates fixed-point/integers
    supports_int_muldiv=False,
    memory_capacity_bytes=0,
    description="Intel Tofino programmable switch ASIC (SwitchML, [16]).",
)

SHARP_SWITCH = DeviceModel(
    name="sharp-switchib2",
    device_class=DeviceClass.INC,
    internal_bandwidth_bps=0.9 * TB,
    compute_units=32,
    unit_gops=10.0,
    supports_fp=True,  # Table I: ALUs with FP support
    supports_int_muldiv=False,
    memory_capacity_bytes=0,
    description="Mellanox SwitchIB-2 in-network reduction (SHARP, [17]).",
)

_CATALOG: Dict[str, DeviceModel] = {
    d.name: d
    for d in (HOST_XEON, CXL_CMS, CXL_PNM, UPMEM_PIM, SWITCHML_TOFINO, SHARP_SWITCH)
}


def device_catalog() -> Tuple[DeviceModel, ...]:
    """All catalog devices, host first then by name."""
    return tuple(
        sorted(_CATALOG.values(), key=lambda d: (d.device_class is not DeviceClass.HOST, d.name))
    )
