"""The deployment result: everything the end-to-end compiler produces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..arch.energy import BlockMix, EnergyReport, estimate_energy
from ..arch.params import FPSAConfig
from ..config_gen.bitstream import FPSABitstream
from ..errors import InvalidRequestError
from ..graph.graph import ComputationalGraph
from ..mapper.mapper import MappingResult
from ..perf.bounds import UtilizationBounds
from ..perf.comm import mean_route_segments
from ..perf.metrics import PerformanceReport
from ..synthesizer.coreop import CoreOpGraph
from .cache import CacheStats
from .pipeline import PassTiming

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..partition.backend import ShardCompileResult
    from ..partition.plan import PartitionResult
    from ..pnr.pnr import PnRResult

__all__ = ["DeploymentResult"]


@dataclass
class DeploymentResult:
    """The output of deploying one NN model onto FPSA.

    Attributes
    ----------
    graph:
        The input computational graph.
    coreops:
        The synthesized core-op graph.
    mapping:
        Allocation + control plan; its netlist is built when first read.
    performance:
        The analytic performance report (throughput, latency, OPS, area).
    bounds:
        Peak / spatial / temporal computational-density bounds.
    pnr:
        Placement & routing result (``None`` unless the detailed flow ran).
    timings:
        Per-pass wall-clock timings from the pass manager.

    Partial compiles (``FPSACompiler.compile(..., passes=...)``) leave the
    artifacts of the omitted passes as ``None``.

    When the stage cache is enabled (the default), artifacts may be shared
    by reference with other results of equivalent compiles — treat them as
    read-only, or compile with caching disabled before mutating them.
    """

    graph: ComputationalGraph
    coreops: CoreOpGraph | None = None
    mapping: MappingResult | None = None
    performance: PerformanceReport | None = None
    bounds: UtilizationBounds | None = None
    pnr: PnRResult | None = None
    bitstream: FPSABitstream | None = None
    #: multi-chip compiles: the partition plan and the per-shard backend
    #: artifacts (``shard_results`` stays ``None`` for the identity 1-chip
    #: partition, whose artifacts land in the top-level fields).
    partition: "PartitionResult | None" = None
    shard_results: "list[ShardCompileResult] | None" = field(default=None, repr=False)
    timings: list[PassTiming] | None = None
    #: stage-cache counter increments attributable to this compile
    #: (evictions; hits and misses are the timings'); ``None`` when the
    #: compile ran without a cache.
    cache_stats: CacheStats | None = None

    @property
    def model(self) -> str:
        return self.graph.name

    def _require(self, artifact: str):
        value = getattr(self, artifact)
        if value is None:
            raise InvalidRequestError(
                f"the {artifact!r} artifact was not produced by this compile "
                f"(it ran a partial pass list); include the producing pass or "
                f"run the full pipeline"
            )
        return value

    @property
    def throughput_samples_per_s(self) -> float:
        return self._require("performance").throughput_samples_per_s

    @property
    def latency_us(self) -> float:
        return self._require("performance").latency_us

    @property
    def area_mm2(self) -> float:
        return self._require("performance").area_mm2

    @property
    def duplication_degree(self) -> int:
        return self._require("mapping").duplication_degree

    def energy(self, config: FPSAConfig | None = None) -> EnergyReport:
        """Estimated dynamic energy of one inference.

        Every core-op execution activates one PE for a full sampling window;
        buffered intermediate values cost one SMB write and one read; the
        control plane toggles once per VMM; routed spike traffic is charged
        per bit-segment.
        """
        config = config if config is not None else FPSAConfig()
        coreops = self._require("coreops")
        mapping = self._require("mapping")
        allocation = mapping.allocation
        view = coreops.derived()
        tiling = view.tiling(config.pe.rows, config.pe.logical_cols)
        vmm_per_inference = allocation.replication * tiling.instances
        traffic = view.traffic
        counts = mapping.block_counts()
        mix = BlockMix(
            **counts,
            pe_vmm_per_inference=float(vmm_per_inference),
            smb_accesses_per_inference=2.0 * traffic,
            clb_cycles_per_inference=float(vmm_per_inference),
            routed_bits_per_inference=traffic * config.pe.sampling_window,
            mean_route_segments=float(
                mean_route_segments(sum(counts.values()))
            ),
        )
        return estimate_energy(mix, config)

    def energy_efficiency_tops_per_w(self, config: FPSAConfig | None = None) -> float:
        """Achieved TOPS per watt (useful ops / inference energy)."""
        report = self.energy(config)
        if report.total_pj <= 0:
            return 0.0
        ops_per_pj = self._require("performance").ops_per_sample / report.total_pj
        return ops_per_pj  # ops/pJ == TOPS/W

    @property
    def cache_hits(self) -> int:
        """Passes of this compile served from the stage cache."""
        return sum(1 for t in self.timings or () if t.cached)

    @property
    def cache_misses(self) -> int:
        """Passes of this compile that had to run (``PassTiming.missed``)."""
        return sum(1 for t in self.timings or () if t.missed)

    def timings_table(self) -> str:
        """Fixed-width table of the per-pass wall-clock timings."""
        if not self.timings:
            return "(no pass timings recorded)"
        header = f"{'pass':<14} {'wall ms':>10} {'cached':>7}  provides"
        lines = [header, "-" * len(header)]
        for timing in self.timings:
            lines.append(
                f"{timing.name:<14} {timing.seconds * 1e3:>10.2f} "
                f"{'yes' if timing.cached else 'no':>7}  {', '.join(timing.provides)}"
            )
        total = sum(t.seconds for t in self.timings)
        lines.append("-" * len(header))
        lines.append(f"{'total':<14} {total * 1e3:>10.2f}")
        cache_line = (
            f"stage cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
        )
        if self.cache_stats is not None:
            cache_line += f", {self.cache_stats.evictions} eviction(s)"
        lines.append(cache_line)
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable deployment report.

        Every section is independently guarded on its own artifact, so the
        report degrades gracefully for partial compiles (an explicit
        ``passes`` list that skips ``perf``, a multi-chip compile whose
        block counts live on the shards, ...): missing sections are simply
        omitted, never assumed present because a related artifact exists.
        """
        lines = [
            f"deployment of {self.model!r} on FPSA",
            f"  weights: {self.graph.total_params():,}   "
            f"ops/inference: {self.graph.total_ops():,}",
        ]
        if self.mapping is not None:
            lines[0] += f" (duplication degree {self.mapping.duplication_degree})"
            counts = self.mapping.block_counts()
            lines.append(
                f"  PEs: {counts['n_pe']}   SMBs: {counts['n_smb']}   "
                f"CLBs: {counts['n_clb']}"
            )
        elif self.partition is not None:
            lines[0] += f" (duplication degree {self.partition.duplication_degree})"
        if self.partition is not None and self.partition.num_chips > 1:
            lines.append(f"  {self.partition.summary()}")
            if self.shard_results is not None:
                blocks = [r.blocks() for r in self.shard_results]
                if all(b is not None for b in blocks):
                    lines.append(
                        f"  PEs: {sum(b['n_pe'] for b in blocks)}   "
                        f"SMBs: {sum(b['n_smb'] for b in blocks)}   "
                        f"CLBs: {sum(b['n_clb'] for b in blocks)} "
                        f"(summed over {len(blocks)} chips)"
                    )
        if self.performance is not None:
            lines.extend([
                f"  chip area: {self.area_mm2:.2f} mm^2",
                f"  throughput: {self.throughput_samples_per_s:,.1f} samples/s",
                f"  latency: {self.latency_us:.2f} us",
                f"  real performance: {self.performance.real_ops / 1e12:.3f} TOPS "
                f"({self.performance.computational_density_ops_per_mm2 / 1e12:.3f} TOPS/mm^2)",
            ])
        if self.bounds is not None:
            lines.append(
                f"  bounds (TOPS/mm^2): peak {self.bounds.peak_density / 1e12:.2f}, "
                f"spatial {self.bounds.spatial_bound / 1e12:.2f}, "
                f"temporal {self.bounds.temporal_bound / 1e12:.2f}"
            )
        if self.timings is not None:
            total_ms = sum(t.seconds for t in self.timings) * 1e3
            cached = sum(1 for t in self.timings if t.cached)
            passes = sum(
                1 for t in self.timings if not t.name.startswith("verify:")
            )
            lines.append(
                f"  compile: {passes} passes in {total_ms:.1f} ms "
                f"({cached} cached)"
            )
        if self.pnr is not None:
            lines.append(f"  {self.pnr.summary()}")
        if self.bitstream is not None:
            lines.append(f"  {self.bitstream.summary()}")
        return "\n".join(lines)
