"""Unit tests for the first-order energy model."""

from repro.hardware.energy import EnergyModel


class TestEnergyModel:
    def test_network_dominates_per_byte(self):
        m = EnergyModel()
        net = m.movement_joules(1000, 0, 0)
        local = m.movement_joules(0, 1000, 0)
        ndp = m.movement_joules(0, 0, 1000)
        assert net > local > ndp

    def test_compute_cheaper_near_data(self):
        m = EnergyModel()
        assert m.ndp_pj_per_op < m.host_pj_per_op
