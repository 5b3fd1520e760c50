"""Tests of the Table-1 hardware parameters and derived quantities."""

import math

import pytest

from repro.arch.params import (
    BlockParams,
    CLBParams,
    FPSAConfig,
    PEParams,
    PrimePEParams,
    RoutingParams,
    SMBParams,
)
from repro.perf.analytic import FPSAArchitecture


class TestBlockParams:
    def test_area_mm2_conversion(self):
        block = BlockParams(energy_pj=1.0, area_um2=1e6, latency_ns=1.0)
        assert block.area_mm2 == pytest.approx(1.0)

    def test_scaled_multiplies_area_and_energy(self):
        block = BlockParams(2.0, 10.0, 3.0)
        scaled = block.scaled(4)
        assert scaled.energy_pj == pytest.approx(8.0)
        assert scaled.area_um2 == pytest.approx(40.0)
        assert scaled.latency_ns == pytest.approx(3.0)

    def test_scaled_rejects_negative_count(self):
        with pytest.raises(ValueError):
            BlockParams(1.0, 1.0, 1.0).scaled(-1)


class TestPEParams:
    def test_published_table1_values(self):
        pe = PEParams()
        assert pe.block.energy_pj == pytest.approx(29.094)
        assert pe.block.area_um2 == pytest.approx(22051.414)
        assert pe.block.latency_ns == pytest.approx(2.443)

    def test_sampling_window_from_io_bits(self):
        assert PEParams().sampling_window == 64
        assert PEParams(io_bits=4).sampling_window == 16

    def test_vmm_latency_matches_table2(self):
        # 64 cycles x 2.443 ns = 156.4 ns (Table 2 FPSA latency)
        assert PEParams().vmm_latency_ns == pytest.approx(156.4, rel=0.01)

    def test_computational_density_matches_table2(self):
        # Table 2 reports 38.004 TOPS/mm^2 for the FPSA PE
        density = PEParams().computational_density_ops_per_mm2
        assert density == pytest.approx(38.004e12, rel=0.01)

    def test_weights_and_ops_per_pe(self):
        pe = PEParams()
        assert pe.weights_per_pe == 256 * 256
        assert pe.ops_per_vmm == 2 * 256 * 256

    def test_physical_columns_must_be_twice_logical(self):
        with pytest.raises(ValueError):
            PEParams(physical_cols=300, logical_cols=256)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PEParams(rows=0, physical_cols=0, logical_cols=0)

    def test_replace_creates_modified_copy(self):
        pe = PEParams().replace(io_bits=4)
        assert pe.io_bits == 4
        assert PEParams().io_bits == 6

    def test_component_area_close_to_block_area(self):
        pe = PEParams()
        component = pe.components.component_area_um2()
        assert component < pe.block.area_um2
        assert component > 0.95 * pe.block.area_um2

    def test_component_energy_close_to_block_energy(self):
        # Table 1's component energies sum to 29.208 pJ against the
        # published 29.094 pJ per PE cycle
        pe = PEParams()
        assert pe.components.component_energy_pj() == pytest.approx(29.208)
        assert pe.components.component_energy_pj() == pytest.approx(pe.block.energy_pj, rel=0.005)

    def test_component_latency_close_to_cycle(self):
        pe = PEParams()
        assert pe.components.cycle_latency_ns() == pytest.approx(pe.cycle_ns, rel=0.01)

    def test_energy_per_vmm_scales_with_window(self):
        pe = PEParams()
        assert pe.energy_per_vmm_pj == pytest.approx(pe.block.energy_pj * 64)


class TestSMBParams:
    def test_capacity_in_values(self):
        smb = SMBParams()
        assert smb.capacity_bits == 16 * 1024
        assert smb.values_capacity(6) == (16 * 1024) // 6

    def test_blocks_for_values(self):
        smb = SMBParams()
        per_block = smb.values_capacity(6)
        assert smb.blocks_for_values(0, 6) == 0
        assert smb.blocks_for_values(1, 6) == 1
        assert smb.blocks_for_values(per_block, 6) == 1
        assert smb.blocks_for_values(per_block + 1, 6) == 2

    def test_invalid_inputs_rejected(self):
        smb = SMBParams()
        with pytest.raises(ValueError):
            smb.values_capacity(0)
        with pytest.raises(ValueError):
            smb.blocks_for_values(-1, 6)


class TestCLBParams:
    def test_published_values(self):
        clb = CLBParams()
        assert clb.block.area_um2 == pytest.approx(5998.272)
        assert clb.luts_per_clb == 128

    def test_blocks_for_luts(self):
        clb = CLBParams()
        assert clb.blocks_for_luts(0) == 0
        assert clb.blocks_for_luts(1) == 1
        assert clb.blocks_for_luts(128) == 1
        assert clb.blocks_for_luts(129) == 2

    def test_negative_luts_rejected(self):
        with pytest.raises(ValueError):
            CLBParams().blocks_for_luts(-1)


class TestRoutingParams:
    def test_hop_delay_grows_with_segments(self):
        routing = RoutingParams()
        assert routing.hop_delay_ns(0) == 0.0
        assert routing.hop_delay_ns(2) > routing.hop_delay_ns(1)

    def test_hop_delay_formula(self):
        routing = RoutingParams(segment_delay_ns=0.1, switch_delay_ns=0.05)
        # n segments and n+1 switches
        assert routing.hop_delay_ns(3) == pytest.approx(3 * 0.1 + 4 * 0.05)

    def test_negative_segments_rejected(self):
        with pytest.raises(ValueError):
            RoutingParams().hop_delay_ns(-1)


class TestPrimePEParams:
    def test_published_table2_values(self):
        prime = PrimePEParams()
        assert prime.area_um2 == pytest.approx(34802.204)
        assert prime.vmm_latency_ns == pytest.approx(3064.7)
        assert prime.computational_density_ops_per_mm2 == pytest.approx(1.229e12, rel=0.01)

    def test_fpsa_pe_smaller_and_faster_than_prime(self):
        fpsa = PEParams()
        prime = PrimePEParams()
        assert fpsa.block.area_um2 < prime.area_um2
        assert fpsa.vmm_latency_ns < prime.vmm_latency_ns
        # area reduction ~36.6%, latency reduction ~94.9% (Table 2)
        assert 1 - fpsa.block.area_um2 / prime.area_um2 == pytest.approx(0.3663, abs=0.01)
        assert 1 - fpsa.vmm_latency_ns / prime.vmm_latency_ns == pytest.approx(0.949, abs=0.005)

    def test_density_improvement_about_31x(self):
        ratio = (
            PEParams().computational_density_ops_per_mm2
            / PrimePEParams().computational_density_ops_per_mm2
        )
        assert ratio == pytest.approx(30.92, rel=0.02)


class TestFPSAConfig:
    def test_chip_area_includes_routing_overhead(self):
        config = FPSAConfig()
        bare = config.pe.area_mm2 + config.smb.area_mm2 + config.clb.area_mm2
        assert config.chip_area_mm2(1, 1, 1) == pytest.approx(
            bare * (1 + config.routing.area_overhead_fraction)
        )

    def test_chip_area_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            FPSAConfig().chip_area_mm2(-1, 0, 0)

    def test_pe_count_for_area_round_trip(self):
        config = FPSAConfig()
        n = int(10.0 / FPSAArchitecture(config).effective_area_per_pe_mm2)
        assert n > 0
        assert config.chip_area_mm2(n, 0, math.ceil(n * config.clbs_per_pe)) <= 10.5

    def test_spike_train_comm_slower_than_count(self):
        config = FPSAConfig()
        assert config.spike_train_comm_ns(10) > config.spike_count_comm_ns(10)

    def test_spike_train_comm_bounded_by_pe_cycle(self):
        config = FPSAConfig()
        # for very short routes the train is paced by the PE spike cycle
        minimum = config.pe.cycle_ns * config.pe.sampling_window
        assert config.spike_train_comm_ns(1) >= minimum
