"""Hardware parameters of FPSA function blocks (Table 1 of the paper).

All numbers are for a 45 nm process, taken verbatim from the paper:

======================  =========  ==========  =========
block                   energy/pJ  area/um^2   latency/ns
======================  =========  ==========  =========
PE (256x256)            29.094     22051.414   2.443
  charging unit (x256)  0.001      2.246       0.070
  ReRAM 256x512 (x8)    0.131      1061.683    ~0
  neuron unit (x512)    0.039      19.247      1.463
  subtractor (x256)     0.031      12.121      0.910
CLB (128 LUTs)          3.106      5998.272    0.229
SMB (16 Kb)             1.150      5421.900    0.578
======================  =========  ==========  =========

The PE latency of 2.443 ns is the latency of one *spike cycle*; a complete
vector-matrix multiplication with n-bit I/O uses a sampling window of 2**n
cycles (156.4 ns for the paper's 6-bit configuration, matching Table 2).

PRIME's per-PE area (34802.204 um^2) and per-VMM latency (3064.7 ns) come
from Table 2 and are used by :mod:`repro.baselines.prime`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import InvalidRequestError

__all__ = [
    "ceil_div",
    "BlockParams",
    "PEComponentParams",
    "PEParams",
    "SMBParams",
    "CLBParams",
    "RoutingParams",
    "InterChipParams",
    "PrimePEParams",
    "FPSAConfig",
    "chip_area_mm2",
    "UM2_PER_MM2",
    "DEFAULT_PRIME_PE",
]


def ceil_div(numerator: int, denominator: int) -> int:
    """Exact ``ceil(numerator / denominator)`` (a float quotient is not, above 2**53)."""
    return -(-numerator // denominator)


#: square micrometres per square millimetre.
UM2_PER_MM2 = 1.0e6


@dataclass(frozen=True)
class BlockParams:
    """Energy/area/latency triple of a hardware block.

    Attributes
    ----------
    energy_pj:
        Dynamic energy per activation, in picojoules.
    area_um2:
        Silicon area in square micrometres.
    latency_ns:
        Latency of one activation in nanoseconds.
    """

    energy_pj: float
    area_um2: float
    latency_ns: float

    @property
    def area_mm2(self) -> float:
        """Area in square millimetres."""
        return self.area_um2 / UM2_PER_MM2

    def scaled(self, count: int) -> "BlockParams":
        """Return aggregate parameters of ``count`` parallel copies.

        Area and energy add up; latency is unchanged because the copies
        operate in parallel.
        """
        if count < 0:
            raise InvalidRequestError(f"count must be non-negative, got {count}")
        return BlockParams(
            energy_pj=self.energy_pj * count,
            area_um2=self.area_um2 * count,
            latency_ns=self.latency_ns,
        )


@dataclass(frozen=True)
class PEComponentParams:
    """Per-component parameters of the FPSA processing element (Table 1)."""

    charging_unit: BlockParams = BlockParams(0.001, 2.246, 0.070)
    reram_crossbar: BlockParams = BlockParams(0.131, 1061.683, 0.000)
    neuron_unit: BlockParams = BlockParams(0.039, 19.247, 1.463)
    subtractor: BlockParams = BlockParams(0.031, 12.121, 0.910)

    n_charging_units: int = 256
    n_crossbars: int = 8
    n_neuron_units: int = 512
    n_subtractors: int = 256

    def component_area_um2(self) -> float:
        """Sum of the component areas (slightly below the published PE area,
        which also includes interconnect inside the PE)."""
        return (
            self.charging_unit.area_um2 * self.n_charging_units
            + self.reram_crossbar.area_um2 * self.n_crossbars
            + self.neuron_unit.area_um2 * self.n_neuron_units
            + self.subtractor.area_um2 * self.n_subtractors
        )

    def component_energy_pj(self) -> float:
        """Sum of the component energies per spike cycle."""
        return (
            self.charging_unit.energy_pj * self.n_charging_units
            + self.reram_crossbar.energy_pj * self.n_crossbars
            + self.neuron_unit.energy_pj * self.n_neuron_units
            + self.subtractor.energy_pj * self.n_subtractors
        )

    def cycle_latency_ns(self) -> float:
        """Latency of one spike cycle through the PE datapath.

        The charging unit, crossbar, neuron unit and subtractor are chained,
        so the per-cycle latency is the sum of the stage latencies.
        """
        return (
            self.charging_unit.latency_ns
            + self.reram_crossbar.latency_ns
            + self.neuron_unit.latency_ns
            + self.subtractor.latency_ns
        )


@dataclass(frozen=True)
class PEParams:
    """Parameters of one FPSA processing element.

    The PE holds a 256x512 physical crossbar.  Two adjacent physical columns
    implement one logical column (positive and negative weight parts), so the
    logical matrix size is ``rows x logical_cols`` = 256 x 256.  Each logical
    weight uses ``cells_per_weight`` 4-bit cells combined with the *add*
    method (8 positive + 8 negative in the paper's configuration).
    """

    block: BlockParams = BlockParams(29.094, 22051.414, 2.443)
    components: PEComponentParams = field(default_factory=PEComponentParams)

    rows: int = 256
    physical_cols: int = 512
    logical_cols: int = 256
    cell_bits: int = 4
    cells_per_weight: int = 8
    weight_bits: int = 8
    io_bits: int = 6

    def __post_init__(self) -> None:
        if self.physical_cols != 2 * self.logical_cols:
            raise InvalidRequestError(
                "physical_cols must be twice logical_cols "
                f"({self.physical_cols} != 2*{self.logical_cols})"
            )
        if self.rows <= 0 or self.logical_cols <= 0:
            raise InvalidRequestError("crossbar dimensions must be positive")
        if self.io_bits <= 0 or self.weight_bits <= 0 or self.cell_bits <= 0:
            raise InvalidRequestError("bit widths must be positive")

    @property
    def sampling_window(self) -> int:
        """Number of spike cycles in one sampling window (2**io_bits)."""
        return 1 << self.io_bits

    @property
    def cycle_ns(self) -> float:
        """Latency of one spike cycle (the Table 1 PE latency)."""
        return self.block.latency_ns

    @property
    def vmm_latency_ns(self) -> float:
        """Latency of one complete vector-matrix multiplication."""
        return self.cycle_ns * self.sampling_window

    @property
    def weights_per_pe(self) -> int:
        """Number of logical weights stored in one PE."""
        return self.rows * self.logical_cols

    @property
    def ops_per_vmm(self) -> int:
        """Number of arithmetic operations (multiply + add) of one full VMM."""
        return 2 * self.rows * self.logical_cols

    @property
    def throughput_ops(self) -> float:
        """Peak throughput of one PE in operations per second."""
        return self.ops_per_vmm / (self.vmm_latency_ns * 1e-9)

    @property
    def area_mm2(self) -> float:
        return self.block.area_mm2

    @property
    def computational_density_ops_per_mm2(self) -> float:
        """Peak computational density (OPS / mm^2) of one PE."""
        return self.throughput_ops / self.area_mm2

    @property
    def energy_per_vmm_pj(self) -> float:
        """Dynamic energy of one complete VMM (all sampling-window cycles)."""
        return self.block.energy_pj * self.sampling_window

    def replace(self, **changes) -> "PEParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SMBParams:
    """Parameters of one spiking memory block (SMB).

    SMBs buffer intermediate data as *spike counts* (not spike trains) in a
    16 Kbit SRAM, with embedded counters/spike generators for the
    count <-> train conversion.
    """

    block: BlockParams = BlockParams(1.150, 5421.900, 0.578)
    capacity_bits: int = 16 * 1024

    @property
    def area_mm2(self) -> float:
        return self.block.area_mm2

    def values_capacity(self, value_bits: int) -> int:
        """How many values of ``value_bits`` bits fit in one SMB."""
        if value_bits <= 0:
            raise InvalidRequestError("value_bits must be positive")
        return self.capacity_bits // value_bits

    def blocks_for_values(self, n_values: int, value_bits: int) -> int:
        """Number of SMBs needed to hold ``n_values`` values."""
        if n_values < 0:
            raise InvalidRequestError("n_values must be non-negative")
        if n_values == 0:
            return 0
        per_block = self.values_capacity(value_bits)
        return ceil_div(n_values, per_block)


@dataclass(frozen=True)
class CLBParams:
    """Parameters of one configurable logic block (CLB).

    A CLB integrates 128 SRAM-based 6-input LUTs (plus flip-flops and
    multiplexers) so that its area and pin count are comparable to one PE.
    """

    block: BlockParams = BlockParams(3.106, 5998.272, 0.229)
    luts_per_clb: int = 128
    lut_inputs: int = 6

    @property
    def area_mm2(self) -> float:
        return self.block.area_mm2

    def blocks_for_luts(self, n_luts: int) -> int:
        """Number of CLBs needed to implement ``n_luts`` LUTs of control logic."""
        if n_luts < 0:
            raise InvalidRequestError("n_luts must be non-negative")
        if n_luts == 0:
            return 0
        return ceil_div(n_luts, self.luts_per_clb)


@dataclass(frozen=True)
class RoutingParams:
    """Parameters of the mrFPGA-style reconfigurable routing architecture.

    The routing network (ReRAM-based connection boxes and switch boxes) is
    stacked *over* the function blocks in metal layers M5-M9, so it adds a
    small fractional area overhead rather than a per-block adder.  Signals
    are transmitted as 1-bit spikes over dedicated, configuration-time
    routed channels.
    """

    #: fraction of function-block area added for the stacked routing fabric
    #: (the paper reports the routing area is *less* than the block area;
    #: mrFPGA's metal-layer stacking hides most of it).
    area_overhead_fraction: float = 0.10
    #: per-segment wire delay (ns) for one routing segment (one block span).
    segment_delay_ns: float = 0.15
    #: delay of a programmed ReRAM switch (switch box / connection box), ns.
    switch_delay_ns: float = 0.05
    #: number of routing tracks per channel in the detailed P&R fabric.
    channel_width: int = 64
    #: energy per bit per segment, pJ.
    energy_per_bit_segment_pj: float = 0.002

    def hop_delay_ns(self, n_segments: int) -> float:
        """Delay of a routed connection crossing ``n_segments`` segments."""
        if n_segments < 0:
            raise InvalidRequestError("n_segments must be non-negative")
        if n_segments == 0:
            return 0.0
        # one CB at each end + one SB per segment boundary
        n_switches = n_segments + 1
        return n_segments * self.segment_delay_ns + n_switches * self.switch_delay_ns


@dataclass(frozen=True)
class InterChipParams:
    """Parameters of the chip-to-chip interconnect of a multi-chip deployment.

    A single FPSA die holds a bounded function-block grid
    (``max_pes_per_chip``); models that do not fit are sharded across
    several chips by the graph partitioner (:mod:`repro.partition`), with
    spike traffic on cut edges crossing serial chip-to-chip links.  Links
    are far slower than the on-chip routing fabric, which is why the
    partitioner minimises the cut.
    """

    #: PE sites available on one chip (the per-chip capacity the
    #: partitioner packs against; SMB/CLB sites scale along with it).
    max_pes_per_chip: int = 2048
    #: usable bandwidth of one chip-to-chip link, bits per nanosecond
    #: (16 bits/ns = 2 GB/s, a SerDes-class serial link).
    link_bandwidth_bits_per_ns: float = 16.0
    #: fixed latency of one chip-boundary crossing (serialisation framing,
    #: pad drivers, clock-domain crossing), nanoseconds.
    link_latency_ns: float = 50.0
    #: full-duplex links available per chip.
    links_per_chip: int = 4
    #: off-chip signaling energy per transferred bit, picojoules.
    energy_per_bit_pj: float = 1.0

    def __post_init__(self) -> None:
        if self.max_pes_per_chip <= 0:
            raise InvalidRequestError("max_pes_per_chip must be positive")
        if self.link_bandwidth_bits_per_ns <= 0:
            raise InvalidRequestError("link_bandwidth_bits_per_ns must be positive")
        if self.link_latency_ns < 0:
            raise InvalidRequestError("link_latency_ns must be non-negative")
        if self.links_per_chip <= 0:
            raise InvalidRequestError("links_per_chip must be positive")

    def transfer_ns(self, bits: float) -> float:
        """Latency of moving ``bits`` over one link (framing + serialisation)."""
        if bits < 0:
            raise InvalidRequestError("bits must be non-negative")
        if bits == 0:
            return 0.0
        return self.link_latency_ns + bits / self.link_bandwidth_bits_per_ns


@dataclass(frozen=True)
class PrimePEParams:
    """Published per-PE parameters of PRIME (Table 2 of the paper).

    PRIME's PE performs the same logical 256x256, 8-bit-weight, 6-bit-I/O
    vector-matrix multiplication, but uses the *splice* weight representation
    and shares ADC/DAC peripheral circuits across rows/columns, which makes
    it larger and much slower per VMM.
    """

    area_um2: float = 34802.204
    vmm_latency_ns: float = 3064.7
    rows: int = 256
    logical_cols: int = 256
    weight_bits: int = 8
    io_bits: int = 6
    #: per-VMM dynamic energy (pJ); PRIME's ADC/DAC-heavy PE is far less
    #: energy-efficient than the spiking PE.  Used only for energy reports.
    energy_per_vmm_pj: float = 4200.0

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / UM2_PER_MM2

    @property
    def weights_per_pe(self) -> int:
        return self.rows * self.logical_cols

    @property
    def ops_per_vmm(self) -> int:
        return 2 * self.rows * self.logical_cols

    @property
    def throughput_ops(self) -> float:
        return self.ops_per_vmm / (self.vmm_latency_ns * 1e-9)

    @property
    def computational_density_ops_per_mm2(self) -> float:
        return self.throughput_ops / self.area_mm2


@dataclass(frozen=True)
class FPSAConfig:
    """Top-level FPSA architecture configuration.

    Bundles the function-block parameters, the routing parameters, and the
    chip-level composition rules used by the mapper and the performance
    models.
    """

    pe: PEParams = field(default_factory=PEParams)
    smb: SMBParams = field(default_factory=SMBParams)
    clb: CLBParams = field(default_factory=CLBParams)
    routing: RoutingParams = field(default_factory=RoutingParams)
    interchip: InterChipParams = field(default_factory=InterChipParams)

    #: number of CLBs provisioned per PE for control-signal generation.
    clbs_per_pe: float = 0.125
    #: average number of routing segments between directly connected blocks
    #: used by the analytic performance model (the detailed P&R flow measures
    #: the real value for small netlists).
    mean_route_segments: int = 4

    def chip_area_mm2(self, n_pe: int, n_smb: int, n_clb: int) -> float:
        """Total chip area for a given block mix, including routing overhead."""
        return chip_area_mm2(self.pe, self, n_pe, n_smb, n_clb)

    def spike_train_comm_ns(self, n_segments: int | None = None) -> float:
        """Communication latency of transmitting one sampling window of
        spike trains between PEs over a routed path of ``n_segments``
        routing segments.

        Spike trains are transmitted cycle by cycle over the routed channel:
        the train occupies ``sampling_window`` cycles and each cycle is paced
        by the slower of the routed hop delay and the PE spike cycle.  This
        is the source of the increased communication latency of FPSA over
        FP-PRIME in Figure 7 (2**n bits of traffic for an n-bit number).
        """
        if n_segments is None:
            n_segments = self.mean_route_segments
        hop = self.routing.hop_delay_ns(n_segments)
        cycle = max(hop, self.pe.cycle_ns)
        # one full window of spikes plus the initial hop latency
        return cycle * self.pe.sampling_window + hop

    def spike_count_comm_ns(self, n_segments: int | None = None) -> float:
        """Communication latency when transmitting *spike counts* (io_bits
        bits per value) instead of spike trains, as FP-PRIME does."""
        if n_segments is None:
            n_segments = self.mean_route_segments
        hop = self.routing.hop_delay_ns(n_segments)
        # io_bits bits transferred serially over the dedicated channel.
        return hop * self.pe.io_bits + hop



def chip_area_mm2(
    pe: PEParams | PrimePEParams, fabric: FPSAConfig | None, n_pe: int, n_smb: int, n_clb: int
) -> float:
    """Chip area of ``n_pe`` PEs of ``pe`` with ``n_smb`` SMBs and ``n_clb``
    CLBs: on an FPSA ``fabric`` the SMBs, the CLBs and the stacked routing
    are paid for; without one (PRIME's PEs sit in memory banks) buffering
    and control reuse the memory chip, so only the PEs are."""
    if min(n_pe, n_smb, n_clb) < 0:
        raise InvalidRequestError("block counts must be non-negative")
    if fabric is None:
        return n_pe * pe.area_mm2
    blocks = n_pe * pe.area_mm2 + n_smb * fabric.smb.area_mm2 + n_clb * fabric.clb.area_mm2
    return blocks * (1.0 + fabric.routing.area_overhead_fraction)


DEFAULT_PRIME_PE = PrimePEParams()
