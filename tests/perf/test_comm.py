"""Tests of the communication-subsystem models."""

import pytest

from repro.arch.params import FPSAConfig
from repro.perf.comm import (
    CommContext,
    ReconfigurableRoutingComm,
    SharedBusComm,
    mean_route_segments,
)


def make_ctx(**overrides) -> CommContext:
    defaults = dict(
        n_blocks=1000, active_pes=300.0, values_per_vmm=512, value_bits=6,
        traffic_values_per_sample=1e8,
    )
    defaults.update(overrides)
    return CommContext(**defaults)


class TestMeanRouteSegments:
    def test_grows_with_block_count(self):
        assert mean_route_segments(100) < mean_route_segments(10000)

    def test_minimum_one(self):
        assert mean_route_segments(1) == 1
        assert mean_route_segments(0) == 1

    def test_scales_like_sqrt(self):
        assert mean_route_segments(10000) == pytest.approx(4 * mean_route_segments(625), rel=0.1)


class TestSharedBusComm:
    def test_latency_grows_with_contention(self):
        bus = SharedBusComm(bandwidth_bits_per_ns=128.0)
        quiet = bus.per_vmm_latency_ns(make_ctx(active_pes=10))
        busy = bus.per_vmm_latency_ns(make_ctx(active_pes=1000))
        assert busy == pytest.approx(100 * quiet)

    def test_sample_rate_limit(self):
        bus = SharedBusComm(bandwidth_bits_per_ns=100.0)
        ctx = make_ctx(traffic_values_per_sample=1e6, value_bits=6)
        # 6e6 bits per sample at 1e11 bits/s
        assert bus.sample_rate_limit(ctx) == pytest.approx(1e11 / 6e6)

    def test_zero_traffic_unlimited(self):
        bus = SharedBusComm()
        assert bus.sample_rate_limit(make_ctx(traffic_values_per_sample=0.0)) == float("inf")

    def test_prime_calibration_order_of_magnitude(self):
        """With the default DDR-class bandwidth and a VGG16-scale active PE
        count, the per-VMM bus latency lands in the ~2e4 ns range of Fig. 7."""
        bus = SharedBusComm()
        latency = bus.per_vmm_latency_ns(make_ctx(active_pes=1000))
        assert 1e4 < latency < 5e4


class TestReconfigurableRoutingComm:
    def test_spike_train_slower_than_count(self):
        config = FPSAConfig()
        ctx = make_ctx()
        train = ReconfigurableRoutingComm(config, spike_train=True)
        count = ReconfigurableRoutingComm(config, spike_train=False)
        assert train.per_vmm_latency_ns(ctx) > count.per_vmm_latency_ns(ctx)

    def test_no_rate_limit(self):
        config = FPSAConfig()
        comm = ReconfigurableRoutingComm(config)
        assert comm.sample_rate_limit(make_ctx()) == float("inf")

    def test_latency_grows_with_fabric_size(self):
        config = FPSAConfig()
        comm = ReconfigurableRoutingComm(config, spike_train=True)
        small = comm.per_vmm_latency_ns(make_ctx(n_blocks=100))
        large = comm.per_vmm_latency_ns(make_ctx(n_blocks=100000))
        assert large > small

    def test_fig7_calibration(self):
        """At a VGG16-scale fabric (~3000 blocks) the spike-train latency is
        in the several-hundred-ns range and the spike-count latency in the
        tens of ns, matching the Figure 7 bars."""
        config = FPSAConfig()
        ctx = make_ctx(n_blocks=3300)
        train = ReconfigurableRoutingComm(config, spike_train=True).per_vmm_latency_ns(ctx)
        count = ReconfigurableRoutingComm(config, spike_train=False).per_vmm_latency_ns(ctx)
        assert 300 < train < 1500
        assert 20 < count < 200

    def test_names(self):
        config = FPSAConfig()
        assert "train" in ReconfigurableRoutingComm(config, spike_train=True).name
        assert "count" in ReconfigurableRoutingComm(config, spike_train=False).name

    def test_spike_train_comm_slower_than_count(self):
        comm = ReconfigurableRoutingComm(FPSAConfig())
        assert comm.spike_train_comm_ns(10) > comm.spike_count_comm_ns(10)

    def test_spike_train_comm_bounded_by_pe_cycle(self):
        config = FPSAConfig()
        # for very short routes the train is paced by the PE spike cycle
        minimum = config.pe.cycle_ns * config.pe.sampling_window
        assert ReconfigurableRoutingComm(config).spike_train_comm_ns(1) >= minimum

    @pytest.mark.parametrize("spike_train", [True, False])
    def test_per_vmm_latency_prices_the_estimated_hop(self, spike_train):
        comm = ReconfigurableRoutingComm(FPSAConfig(), spike_train=spike_train)
        price = comm.spike_train_comm_ns if spike_train else comm.spike_count_comm_ns
        ctx = make_ctx(n_blocks=3300)
        assert comm.per_vmm_latency_ns(ctx) == price(mean_route_segments(3300))
