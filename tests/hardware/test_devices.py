"""Unit tests for device models and the Table I catalog."""

import pytest

from repro.errors import ConfigError
from repro.hardware.catalog import (
    CXL_CMS,
    CXL_PNM,
    HOST_XEON,
    SHARP_SWITCH,
    SWITCHML_TOFINO,
    UPMEM_PIM,
    device_catalog,
    list_devices,
)
from repro.hardware.device import DeviceClass, DeviceModel


class TestDeviceModel:
    def test_aggregate_throughput(self):
        d = DeviceModel(
            name="x",
            device_class=DeviceClass.PNM,
            internal_bandwidth_bps=1e12,
            compute_units=4,
            unit_gops=2.0,
            supports_fp=True,
            supports_int_muldiv=True,
            memory_capacity_bytes=1,
        )
        assert d.aggregate_ops_per_second == 8e9

    def test_compute_seconds(self):
        assert HOST_XEON.compute_seconds(HOST_XEON.aggregate_ops_per_second) == 1.0
        assert HOST_XEON.compute_seconds(0) == 0.0

    def test_memory_seconds(self):
        assert CXL_CMS.memory_seconds(CXL_CMS.internal_bandwidth_bps) == 1.0

    def test_zero_capacity_device_errors_on_use(self):
        d = DeviceModel(
            name="dud",
            device_class=DeviceClass.PIM,
            internal_bandwidth_bps=0,
            compute_units=0,
            unit_gops=0,
            supports_fp=False,
            supports_int_muldiv=False,
            memory_capacity_bytes=0,
        )
        with pytest.raises(ConfigError):
            d.compute_seconds(10)
        with pytest.raises(ConfigError):
            d.memory_seconds(10)

    def test_invalid_fields(self):
        with pytest.raises(ConfigError):
            DeviceModel(
                name="bad",
                device_class=DeviceClass.PNM,
                internal_bandwidth_bps=-1,
                compute_units=1,
                unit_gops=1,
                supports_fp=True,
                supports_int_muldiv=True,
                memory_capacity_bytes=1,
            )


class TestCatalog:
    def test_table1_devices_present(self):
        names = list_devices()
        for name in (
            "host-xeon",
            "cxl-cms",
            "cxl-pnm",
            "upmem",
            "switchml-tofino",
            "sharp-switchib2",
        ):
            assert name in names

    def test_catalog_host_first(self):
        catalog = device_catalog()
        assert catalog[0].device_class is DeviceClass.HOST

    def test_table1_capability_facts(self):
        # The table's qualitative rows, encoded:
        assert CXL_CMS.supports_fp  # "Support for FP operations"
        assert CXL_PNM.supports_fp
        assert not UPMEM_PIM.supports_fp  # "Primitive support for FP"
        assert not UPMEM_PIM.supports_int_muldiv
        assert UPMEM_PIM.compute_units >= 1000  # "1000s of DPUs"
        assert SHARP_SWITCH.supports_fp  # "ALUs with FP-support"
        assert not SWITCHML_TOFINO.supports_fp

    def test_table1_bandwidth_facts(self):
        assert CXL_CMS.internal_bandwidth_bps == pytest.approx(1.1e12)  # ~1.1 TB/s
        assert UPMEM_PIM.internal_bandwidth_bps == pytest.approx(1.7e12)  # ~1.7 TB/s
        # NDP devices provide far more internal bandwidth than the host.
        assert CXL_CMS.internal_bandwidth_bps > 5 * HOST_XEON.internal_bandwidth_bps

    def test_switches_have_no_memory_pool(self):
        assert SWITCHML_TOFINO.memory_capacity_bytes == 0
        assert SHARP_SWITCH.memory_capacity_bytes == 0
