"""The PRIME baseline (Chi et al., ISCA 2016).

PRIME is a processing-in-memory design built from an ReRAM main-memory
chip: its PEs are full-swing analog crossbars with shared ADC/DAC
peripherals (the *splice* weight representation), and its PEs communicate
over the chip's internal hierarchical memory bus.  The paper compares FPSA
against PRIME throughout the evaluation because PRIME's implementation
details are published.

As an :class:`~repro.perf.analytic.Architecture` PRIME is ``pe × comm ×
fabric`` = PRIME's PE × a shared bus × no fabric (its PEs sit inside the
memory banks), so the same analytic evaluator produces its peak / ideal /
real curves (Figure 2).  The published reference numbers are used in
Table 2.
"""

from __future__ import annotations

from ..arch.params import DEFAULT_PRIME_PE, PrimePEParams
from ..perf.analytic import Architecture
from ..perf.comm import SharedBusComm

__all__ = ["PrimeArchitecture", "PRIME_PUBLISHED"]


#: published PRIME per-PE numbers from Table 2 of the FPSA paper.
PRIME_PUBLISHED = {
    "area_um2": 34802.204,
    "latency_ns": 3064.7,
    "computational_density_ops_per_mm2": 1.229e12,
}


def PrimeArchitecture(
    pe: PrimePEParams = DEFAULT_PRIME_PE,
    bus_bandwidth_bits_per_ns: float = 128.0,
) -> Architecture:
    """PRIME: its PE on the memory chip's shared bus, charged for no fabric.

    ``bus_bandwidth_bits_per_ns`` is the internal memory-bus bandwidth
    (128 bits/ns = 16 GB/s, a DDR-class channel; calibration constant).
    """
    return Architecture(
        "PRIME", pe, SharedBusComm(bandwidth_bits_per_ns=bus_bandwidth_bits_per_ns), None
    )
