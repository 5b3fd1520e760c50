"""Tests of the chip-level energy aggregation."""

import pytest

from repro.arch.energy import BlockMix, EnergyReport, estimate_energy
from repro.arch.params import FPSAConfig


class TestEnergyReport:
    def test_total_and_breakdown(self):
        report = EnergyReport(pe_pj=60.0, smb_pj=20.0, clb_pj=10.0, routing_pj=10.0)
        assert report.total_pj == pytest.approx(100.0)
        assert report.total_uj == pytest.approx(1e-4)
        breakdown = report.breakdown()
        assert breakdown["pe"] == pytest.approx(0.6)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        report = EnergyReport(0.0, 0.0, 0.0, 0.0)
        assert report.breakdown()["pe"] == 0.0


class TestEstimateEnergy:
    def test_pe_energy_dominates_compute_heavy_mix(self):
        config = FPSAConfig()
        mix = BlockMix(
            n_pe=100, n_smb=10, n_clb=10,
            pe_vmm_per_inference=1000.0,
            smb_accesses_per_inference=100.0,
            clb_cycles_per_inference=100.0,
            routed_bits_per_inference=1e5,
            mean_route_segments=4.0,
        )
        report = estimate_energy(mix, config)
        assert report.pe_pj > report.smb_pj
        assert report.pe_pj > report.clb_pj
        assert report.total_pj > 0

    def test_energy_scales_linearly_with_activity(self):
        mix1 = BlockMix(10, 1, 1, 100.0, 10.0, 10.0, 1e4, 4.0)
        mix2 = BlockMix(10, 1, 1, 200.0, 20.0, 20.0, 2e4, 4.0)
        r1 = estimate_energy(mix1)
        r2 = estimate_energy(mix2)
        assert r2.total_pj == pytest.approx(2 * r1.total_pj)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            BlockMix(-1, 0, 0, 0.0, 0.0, 0.0, 0.0, 1.0)
