"""Interconnect models: alpha-beta links, star topology, INC switch."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".link": ("Link", "LinkClass"),
        ".switch": ("SwitchModel", "AggregationOutcome"),
        ".topology": ("ClusterTopology",),
    },
)
