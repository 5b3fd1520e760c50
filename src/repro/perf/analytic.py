"""The analytic pipelined performance model.

This is the model the experiment harnesses use for ImageNet-scale networks
(the paper's own evaluation similarly drives a performance simulator with
the mrVPR routing report rather than simulating every spike).  It combines:

* the allocation (bottleneck iterations, temporal utilization), and
* an :class:`Architecture` — ``pe × comm × fabric``: the PE's per-VMM
  latency and area, a communication model (shared bus or reconfigurable
  routing), and the FPSA fabric the chip pays for (``None`` for PRIME),

into throughput, latency, peak/ideal/real OPS and chip area.  FPSA, PRIME
and FP-PRIME are three such records (:func:`FPSAArchitecture`,
:func:`~repro.baselines.PrimeArchitecture`,
:func:`~repro.baselines.FPPrimeArchitecture`).

``ideal`` performance assumes an infinitely fast communication subsystem
(only computation and utilization limit it); ``real`` performance adds the
communication latency per pipeline stage and the shared-medium throughput
ceiling (for bus-based architectures), which reproduces the three-bound
picture of Figures 2 and 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.params import FPSAConfig, PEParams, PrimePEParams, chip_area_mm2
from ..mapper.allocation import AllocationResult, allocate_for_pe_budget
from ..mapper.netlist import smbs_per_edge
from ..synthesizer.coreop import CoreOpGraph
from .comm import CommContext, ReconfigurableRoutingComm, SharedBusComm
from .metrics import LatencyBreakdown, PerformanceReport

__all__ = [
    "Architecture",
    "FPSAArchitecture",
    "BlockCounts",
    "estimate_block_counts",
    "traffic_values_per_sample",
    "pipeline_depth",
    "evaluate_design_point",
    "sweep_area",
    "AreaSweepPoint",
]


@dataclass(frozen=True)
class Architecture:
    """One architecture as the analytic evaluator sees it: ``pe × comm ×
    fabric``.

    ``pe`` computes the VMMs, ``comm`` moves the values between them, and
    ``fabric`` is the :class:`FPSAConfig` whose SMBs, CLBs and routing
    overhead the chip pays for — or ``None`` for PRIME, whose PEs sit
    inside memory banks that already buffer and control them.
    """

    name: str
    pe: PEParams | PrimePEParams
    comm: SharedBusComm | ReconfigurableRoutingComm
    fabric: FPSAConfig | None

    @property
    def values_per_vmm(self) -> int:
        """Values one VMM moves: its input vector and its output vector."""
        return self.pe.rows + self.pe.logical_cols

    @property
    def effective_area_per_pe_mm2(self) -> float:
        """Chip area consumed per PE including its share of support blocks."""
        fabric = self.fabric
        if fabric is None:
            return self.pe.area_mm2
        return (self.pe.area_mm2 + fabric.clbs_per_pe * fabric.clb.area_mm2) * (
            1.0 + fabric.routing.area_overhead_fraction
        )

    def chip_area_mm2(self, n_pe: int, n_smb: int, n_clb: int) -> float:
        """Total chip area of a block mix (see :func:`chip_area_mm2`)."""
        return chip_area_mm2(self.pe, self.fabric, n_pe, n_smb, n_clb)


def FPSAArchitecture(config: FPSAConfig | None = None) -> Architecture:
    """FPSA: the spiking PE streaming spike trains over its own fabric."""
    config = config if config is not None else FPSAConfig()
    return Architecture(
        "FPSA", config.pe, ReconfigurableRoutingComm(config, spike_train=True), config
    )


@dataclass(frozen=True)
class BlockCounts:
    """Estimated function-block mix of one mapped design point."""

    n_pe: int
    n_smb: int
    n_clb: int

    @property
    def total(self) -> int:
        return self.n_pe + self.n_smb + self.n_clb


def estimate_block_counts(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
    n_smb: int | None = None,
) -> BlockCounts:
    """Block counts of a design point that has no mapping: the netlist's
    exact PE and SMB counts, CLBs at the default ``clbs_per_pe``
    provisioning (a mapping's control plan sizes them exactly).  A caller
    holding a mapping passes its SMB count as ``n_smb``; without one the
    count is derived from the buffered-edge rule."""
    config = config if config is not None else FPSAConfig()
    n_pe = allocation.total_pes
    if n_smb is None:
        n_smb = allocation.replication * sum(smbs_per_edge(coreops, allocation, config))
    n_clb = max(1, math.ceil(n_pe * config.clbs_per_pe))
    return BlockCounts(n_pe=n_pe, n_smb=n_smb, n_clb=n_clb)


def traffic_values_per_sample(coreops: CoreOpGraph) -> float:
    """Total number of values moved between function blocks per inference."""
    return coreops.derived().traffic


def pipeline_depth(coreops: CoreOpGraph) -> int:
    """Length (in groups) of the longest dataflow path: the pipeline depth."""
    return coreops.derived().depth


def evaluate_design_point(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    useful_ops_per_sample: float,
    arch: Architecture,
    n_pe_total: int | None = None,
    config: FPSAConfig | None = None,
    n_smb: int | None = None,
) -> PerformanceReport:
    """Evaluate one (model, architecture, allocation) design point.

    Parameters
    ----------
    useful_ops_per_sample:
        The original network's operation count (MAC = 2 ops), used for the
        OPS figures so that peak/ideal/real are comparable across
        architectures.
    n_pe_total:
        Total PEs physically present on the chip (>= the allocated PEs);
        the surplus contributes to peak performance and area but idles.
    n_smb:
        The mapping's SMB count, when the caller has a mapping
        (:func:`estimate_block_counts` derives it otherwise).
    """
    config = config if config is not None else FPSAConfig()
    blocks = estimate_block_counts(coreops, allocation, config, n_smb)
    n_pe = max(blocks.n_pe, n_pe_total or 0)

    comm = arch.comm
    # Communication distances are set by the blocks the mapping actually
    # uses (the placer clusters them); surplus PEs padding the chip do not
    # stretch the routed paths.
    ctx = CommContext(
        n_blocks=blocks.total,
        active_pes=blocks.n_pe * allocation.temporal_utilization(),
        values_per_vmm=arch.values_per_vmm,
        value_bits=arch.pe.io_bits,
        traffic_values_per_sample=traffic_values_per_sample(coreops),
    )
    t_vmm = arch.pe.vmm_latency_ns
    t_comm = comm.per_vmm_latency_ns(ctx)

    max_iter = allocation.max_iterations
    ideal_stage_ns = max_iter * t_vmm
    # Spike trains stream while the crossbar computes (the NBD constraint of
    # the scheduler), so in steady state each iteration of the bottleneck
    # stage is paced by the slower of computation and communication; both
    # still appear in the end-to-end latency.
    real_stage_ns = max_iter * max(t_vmm, t_comm)

    # whole-model replicas process independent samples in parallel.
    replication = allocation.replication
    ideal_throughput = replication * 1e9 / ideal_stage_ns
    real_throughput = min(replication * 1e9 / real_stage_ns, comm.sample_rate_limit(ctx))

    depth = pipeline_depth(coreops)
    latency_ns = max(real_stage_ns, 1e9 / real_throughput) + depth * (t_vmm + t_comm)

    ops_per_vmm_rate = arch.pe.ops_per_vmm / (t_vmm * 1e-9)
    peak_ops = n_pe * ops_per_vmm_rate
    ideal_ops = useful_ops_per_sample * ideal_throughput
    real_ops = useful_ops_per_sample * real_throughput

    area = arch.chip_area_mm2(n_pe, blocks.n_smb, blocks.n_clb)
    return PerformanceReport(
        model=coreops.name,
        architecture=arch.name,
        area_mm2=area,
        throughput_samples_per_s=real_throughput,
        latency_us=latency_ns / 1e3,
        ops_per_sample=useful_ops_per_sample,
        peak_ops=peak_ops,
        ideal_ops=ideal_ops,
        real_ops=real_ops,
        latency_breakdown=LatencyBreakdown(
            computation_ns=t_vmm, communication_ns=t_comm
        ),
        n_pe=n_pe,
        duplication_degree=allocation.duplication_degree,
    )


@dataclass(frozen=True)
class AreaSweepPoint:
    """One point of a performance-versus-area sweep (Figures 2 and 6)."""

    area_mm2: float
    n_pe: int
    peak_ops: float
    ideal_ops: float
    real_ops: float
    mapped: bool


def sweep_area(
    coreops: CoreOpGraph,
    useful_ops_per_sample: float,
    arch: Architecture,
    areas_mm2: list[float],
    config: FPSAConfig | None = None,
) -> list[AreaSweepPoint]:
    """Sweep chip area and report peak / ideal / real performance.

    Below the minimum-storage area the model cannot be mapped at all; those
    points report the peak performance only (``mapped=False``).
    """
    config = config if config is not None else FPSAConfig()
    points: list[AreaSweepPoint] = []
    for area in areas_mm2:
        n_pe = int(area / arch.effective_area_per_pe_mm2)
        if n_pe < 1:
            points.append(AreaSweepPoint(area, 0, 0.0, 0.0, 0.0, mapped=False))
            continue
        allocation = allocate_for_pe_budget(coreops, n_pe, config.pe)
        peak = n_pe * arch.pe.ops_per_vmm / (arch.pe.vmm_latency_ns * 1e-9)
        if allocation is None:
            points.append(AreaSweepPoint(area, n_pe, peak, 0.0, 0.0, mapped=False))
            continue
        report = evaluate_design_point(
            coreops, allocation, useful_ops_per_sample, arch,
            n_pe_total=n_pe, config=config,
        )
        points.append(
            AreaSweepPoint(
                area_mm2=area,
                n_pe=n_pe,
                peak_ops=peak,
                ideal_ops=report.ideal_ops,
                real_ops=report.real_ops,
                mapped=True,
            )
        )
    return points
