"""Tests of the PRIME / FP-PRIME / reference baseline models."""

import pytest

from repro.arch.params import PEParams
from repro.baselines import (
    ISAAC_REFERENCE,
    PIPELAYER_REFERENCE,
    PRIME_PUBLISHED,
    FPPrimeArchitecture,
    PrimeArchitecture,
)
from repro.errors import InvalidRequestError
from repro.perf.analytic import FPSAArchitecture
from repro.perf.comm import ReconfigurableRoutingComm, SharedBusComm


class TestPrimeArchitecture:
    def test_published_numbers(self):
        prime = PrimeArchitecture()
        assert prime.pe.vmm_latency_ns == pytest.approx(PRIME_PUBLISHED["latency_ns"])
        assert prime.pe.area_mm2 * 1e6 == pytest.approx(PRIME_PUBLISHED["area_um2"])
        assert prime.pe.computational_density_ops_per_mm2 == pytest.approx(
            PRIME_PUBLISHED["computational_density_ops_per_mm2"], rel=0.01
        )

    def test_uses_shared_bus(self):
        assert isinstance(PrimeArchitecture().comm, SharedBusComm)

    def test_chip_area_is_pe_only(self):
        prime = PrimeArchitecture()
        assert prime.chip_area_mm2(100, 50, 50) == pytest.approx(100 * prime.pe.area_mm2)


class TestFPPrimeArchitecture:
    def test_same_pe_as_prime(self):
        prime = PrimeArchitecture()
        fp = FPPrimeArchitecture()
        assert fp.pe.vmm_latency_ns == prime.pe.vmm_latency_ns
        assert fp.pe.area_mm2 == prime.pe.area_mm2
        assert fp.pe.ops_per_vmm == prime.pe.ops_per_vmm

    def test_uses_routing_fabric_with_spike_counts(self):
        comm = FPPrimeArchitecture().comm
        assert isinstance(comm, ReconfigurableRoutingComm)
        assert comm.spike_train is False

    def test_area_includes_routing_overhead(self):
        fp = FPPrimeArchitecture()
        prime = PrimeArchitecture()
        assert fp.effective_area_per_pe_mm2 > prime.effective_area_per_pe_mm2

    def test_peak_density_equals_prime(self):
        """FP-PRIME keeps PRIME's PE, so its per-PE peak matches PRIME's."""
        fp = FPPrimeArchitecture()
        prime = PrimeArchitecture()
        fp_rate = fp.pe.ops_per_vmm / fp.pe.vmm_latency_ns
        prime_rate = prime.pe.ops_per_vmm / prime.pe.vmm_latency_ns
        assert fp_rate == pytest.approx(prime_rate)


@pytest.mark.parametrize(
    "architecture", [FPSAArchitecture, PrimeArchitecture, FPPrimeArchitecture]
)
@pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_every_architecture_rejects_negative_block_counts(architecture, counts):
    with pytest.raises(InvalidRequestError, match="non-negative"):
        architecture().chip_area_mm2(*counts)


class TestReferencePoints:
    def test_density_ordering_matches_paper(self):
        """Section 6.2: FPSA (38) > PipeLayer (1.485) > PRIME (1.229) > ISAAC (0.479)."""
        fpsa = PEParams().computational_density_ops_per_mm2
        prime = PrimeArchitecture().pe.computational_density_ops_per_mm2
        assert fpsa > PIPELAYER_REFERENCE.computational_density_ops_per_mm2
        assert PIPELAYER_REFERENCE.computational_density_ops_per_mm2 > prime
        assert prime > ISAAC_REFERENCE.computational_density_ops_per_mm2

    def test_tops_helper(self):
        assert ISAAC_REFERENCE.tops_per_mm2 == pytest.approx(0.479)
