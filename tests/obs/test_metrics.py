"""Metrics registry: declarations and counters checked against them."""

from __future__ import annotations

import pytest

from repro.errors import MetricError, ReproError
from repro.obs.metrics import METRICS, CounterSet, M, MetricsRegistry


class TestRegistry:
    def test_declare_returns_name(self):
        reg = MetricsRegistry()
        assert reg.declare("foo-bytes", unit="bytes") == "foo-bytes"
        assert "foo-bytes" in reg
        assert reg.spec("foo-bytes").unit == "bytes"

    def test_redeclare_same_kind_is_noop(self):
        reg = MetricsRegistry()
        reg.declare("foo")
        assert reg.declare("foo") == "foo"
        assert reg.names() == ("foo",)

    def test_typo_raises_with_closest_match_hint(self):
        with pytest.raises(MetricError) as exc:
            METRICS.check("fault-event")  # declared name is "fault-events"
        msg = str(exc.value)
        assert "undeclared metric" in msg
        assert "did you mean 'fault-events'" in msg

    def test_metric_error_is_repro_error(self):
        assert issubclass(MetricError, ReproError)

    def test_m_constants_are_declared_strings(self):
        for attr in dir(M):
            if attr.startswith("_"):
                continue
            name = getattr(M, attr)
            assert isinstance(name, str)
            assert name in METRICS, f"M.{attr} = {name!r} not declared"


class TestCounterSet:
    def test_strict_add_rejects_typos(self):
        c = CounterSet()
        c.add(M.FAULT_EVENTS)  # declared: fine
        with pytest.raises(MetricError, match="did you mean"):
            c.add("fault-event")

    def test_strict_initial_mapping_validated(self):
        with pytest.raises(MetricError):
            CounterSet({"bogus-name": 1.0})
        c = CounterSet({M.FAULT_EVENTS: 2.0})
        assert c[M.FAULT_EVENTS] == 2.0

    def test_strict_reads_stay_lenient(self):
        c = CounterSet()
        assert c["definitely-not-declared"] == 0.0
        assert c.get("also-not-declared") == 0.0
