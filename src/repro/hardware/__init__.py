"""Device capability models for the emerging NDP hardware tier (Table I)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".device": ("DeviceClass", "DeviceModel"),
        ".catalog": (
            "CXL_CMS", "CXL_PNM", "UPMEM_PIM", "SWITCHML_TOFINO",
            "SHARP_SWITCH", "HOST_XEON", "device_catalog", "list_devices",
        ),
        ".capabilities": (
            "OffloadCheck", "check_offload", "supported_kernels",
        ),
        ".energy": ("EnergyModel",),
    },
)
