"""Unit tests for links and the star topology."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.link import DEFAULT_HOST_LINK, Link
from repro.net.topology import ClusterTopology


class TestLink:
    def test_alpha_beta(self):
        link = Link(bandwidth_bps=1e9, latency_s=1e-6)
        assert link.transfer_seconds(1e9, 1) == pytest.approx(1.0 + 1e-6)

    def test_message_latency_accumulates(self):
        link = Link(bandwidth_bps=1e9, latency_s=1e-6)
        one = link.transfer_seconds(1000, 1)
        ten = link.transfer_seconds(1000, 10)
        assert ten == pytest.approx(one + 9e-6)

    def test_zero_transfer_free(self):
        assert DEFAULT_HOST_LINK.transfer_seconds(0, 0) == 0.0

    def test_zero_bytes_one_message_pays_latency(self):
        link = Link(bandwidth_bps=1e9, latency_s=5e-6)
        assert link.transfer_seconds(0, 1) == pytest.approx(5e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Link(bandwidth_bps=0)
        with pytest.raises(ConfigError):
            Link(bandwidth_bps=1e9, latency_s=-1)
        with pytest.raises(ConfigError):
            Link(bandwidth_bps=1e9).transfer_seconds(-1)


class TestLinkDegraded:
    def test_identity_degradation_returns_self(self):
        link = Link(bandwidth_bps=1e9, latency_s=1e-6)
        assert link.degraded() is link
        assert link.degraded(bandwidth_scale=1.0, extra_latency_s=0.0) is link

    def test_bandwidth_cut_and_latency_spike(self):
        link = Link(bandwidth_bps=1e9, latency_s=1e-6)
        slow = link.degraded(bandwidth_scale=0.25, extra_latency_s=9e-6)
        assert slow.bandwidth_bps == pytest.approx(0.25e9)
        assert slow.latency_s == pytest.approx(10e-6)
        # The original frozen link is untouched.
        assert link.bandwidth_bps == 1e9

    def test_degraded_transfer_is_slower(self):
        link = Link(bandwidth_bps=1e9, latency_s=1e-6)
        slow = link.degraded(bandwidth_scale=0.5)
        assert slow.transfer_seconds(1e6, 4) > link.transfer_seconds(1e6, 4)

    def test_validation(self):
        link = Link(bandwidth_bps=1e9)
        with pytest.raises(ConfigError):
            link.degraded(bandwidth_scale=0.0)
        with pytest.raises(ConfigError):
            link.degraded(bandwidth_scale=1.5)  # a "degradation" cannot speed up
        with pytest.raises(ConfigError):
            link.degraded(bandwidth_scale=-0.5)
        with pytest.raises(ConfigError):
            link.degraded(extra_latency_s=-1e-6)


class TestTopology:
    def test_construction(self):
        topo = ClusterTopology(num_compute=2, num_memory=4)
        assert topo.num_nodes == 6

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterTopology(num_compute=0, num_memory=4)
        with pytest.raises(ConfigError):
            ClusterTopology(num_compute=1, num_memory=-1)

    def test_memory_fanin_is_bottleneck(self):
        topo = ClusterTopology(num_compute=1, num_memory=4)
        per_node = np.array([100, 100, 100, 10_000_000])
        msgs = np.ones(4)
        t = topo.memory_fanin_seconds(per_node, msgs)
        expected = topo.memory_link.transfer_seconds(10_000_000, 1)
        assert t == pytest.approx(expected)

    def test_fanin_ignores_idle_nodes(self):
        topo = ClusterTopology(num_compute=1, num_memory=3)
        t = topo.memory_fanin_seconds(np.zeros(3), np.zeros(3))
        assert t == 0.0

    def test_fanin_matches_per_node_oracle(self):
        """One transfer of the busiest active node's bytes equals the
        slowest of the per-node transfers, bit for bit, on healthy and
        degraded links."""

        def per_node(link, nbytes, active):
            times = [
                link.transfer_seconds(float(b), int(a))
                for b, a in zip(nbytes, active)
                if b > 0 or a
            ]
            return max(times, default=0.0)

        rng = np.random.default_rng(2024)
        for _ in range(2000):
            link = Link(
                bandwidth_bps=float(10.0 ** rng.uniform(-3, 12)),
                latency_s=float(rng.choice([0.0, 10.0 ** rng.uniform(-9, -3)])),
            )
            topo = ClusterTopology(
                num_compute=1,
                num_memory=int(rng.integers(1, 40)),
                memory_link=link,
            )
            if rng.random() < 0.3:
                topo = topo.with_degraded_links(
                    bandwidth_scale=float(rng.uniform(0.01, 1.0)),
                    extra_latency_s=float(rng.choice([0.0, 5e-6])),
                )
            n = topo.num_memory
            nbytes = rng.integers(0, 10 ** int(rng.integers(1, 10)), size=n)
            nbytes[rng.random(n) < 0.4] = 0
            active = (nbytes > 0) & (rng.random(n) < 0.9)
            active |= rng.random(n) < 0.1
            expected = per_node(topo.memory_link, nbytes, active)
            assert topo.memory_fanin_seconds(nbytes, active) == expected

    def test_fanin_rejects_negative_bytes(self):
        topo = ClusterTopology(num_compute=1, num_memory=3)
        with pytest.raises(ConfigError):
            topo.memory_fanin_seconds(
                np.array([5, -1, 0]), np.array([True, True, False])
            )

    def test_host_fanout_parallel_across_hosts(self):
        one_host = ClusterTopology(num_compute=1, num_memory=2)
        four_hosts = ClusterTopology(num_compute=4, num_memory=2)
        nbytes = 4e9
        assert four_hosts.host_fanout_seconds(nbytes, 4) < one_host.host_fanout_seconds(
            nbytes, 4
        )

    def test_barrier_grows_with_participants(self):
        topo = ClusterTopology(num_compute=1, num_memory=1)
        assert topo.barrier_seconds(1) == 0.0
        assert topo.barrier_seconds(2) > 0
        assert topo.barrier_seconds(16) > topo.barrier_seconds(4)

    def test_barrier_log_scaling(self):
        topo = ClusterTopology(num_compute=1, num_memory=1)
        assert topo.barrier_seconds(16) == pytest.approx(
            2 * topo.barrier_seconds(4)
        )
