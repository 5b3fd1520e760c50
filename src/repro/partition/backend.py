"""The per-chip backend of partitioned compilation.

After the ``partition`` pass splits the core-op graph, every shard runs the
back half of the pipeline (``mapping`` -> ``perf`` -> ``bounds`` and
optionally ``pnr`` / ``bitstream``) as an independent
compile: each shard gets its own :class:`~repro.core.pipeline.PassManager`
with the ``coreops`` artifact preloaded, hits the stage cache with its own
content-addressed keys, and — for ``shard_jobs > 1`` — compiles in a worker
process of a :class:`~repro.core.api.WorkerPool` opened for the one compile.
A disk tier reaches those workers only with the stage cache they are handed.

Every shard is allocated against the *whole model's* pipeline pace
(``target_iterations`` / ``replication`` recorded on the plan), so the
union of the shard mappings is exactly the single-chip mapping; what the
partition changes is only where blocks physically live and which edges
cross chip boundaries.  :func:`combine_performance` then folds the
per-shard analytic reports and the cut-edge traffic into one end-to-end
report under the inter-chip link model.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..arch.params import FPSAConfig
from ..core.api import _MAX_AUTO_JOBS, WorkerPool
from ..core.cache import StageCache
from ..core.pipeline import CompileOptions, PassManager, PassTiming, resolve_passes
from ..errors import InvalidRequestError
from ..perf.comm import InterChipLinkModel
from ..perf.metrics import LatencyBreakdown, PerformanceReport
from .plan import PartitionResult, Shard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.bounds import UtilizationBounds

__all__ = [
    "ShardCompileResult",
    "backend_pass_names",
    "compile_shards",
    "combine_performance",
    "combine_bounds",
]

#: pipeline stages that run once, before the per-shard backend.
_FRONTEND_PASSES = ("synthesis", "partition")


def backend_pass_names(names: list[str]) -> list[str]:
    """The per-shard slice of a full pass list (everything after partition)."""
    return [n for n in names if n not in _FRONTEND_PASSES]


@dataclass
class ShardCompileResult:
    """Artifacts of one shard's backend compile."""

    shard: Shard
    mapping: Any = None
    performance: Any = None
    bounds: Any = None
    pnr: Any = None
    bitstream: Any = None
    timings: list[PassTiming] | None = None
    #: this shard's per-compile stage-cache counters (tallied by its own
    #: pass-manager run, so parallel shards stay uncontaminated).
    cache_stats: Any = None

    @property
    def index(self) -> int:
        return self.shard.index

    @property
    def model(self) -> str:
        return self.shard.model

    def blocks(self) -> dict[str, int] | None:
        """Exact function-block counts of this shard's netlist."""
        if self.mapping is None:
            return None
        return self.mapping.block_counts()


def shard_options(
    options: CompileOptions,
    plan: PartitionResult,
    shard: Shard,
    useful_ops_per_sample: float,
) -> CompileOptions:
    """The compile options of one shard's backend run.

    Partition-flow fields are cleared (a shard is a plain single-chip
    compile), the whole-model pipeline pace plus the shard's proportional
    useful-operation share are pinned, and the per-chip capacity becomes
    the shard's mapping-time pre-flight bound — a safety net that catches
    any drift between the partitioner's PE estimates and the mapper's
    actual allocation.
    """
    return dataclasses.replace(
        options,
        num_chips=None,
        shard_jobs=None,
        pe_budget=None,
        duplication_degree=plan.duplication_degree,
        target_iterations=plan.target_iterations,
        replication=plan.replication,
        useful_ops_per_sample=useful_ops_per_sample,
        max_pes=plan.capacity_pes_per_chip,
    )


def run_backend(
    shard: Shard,
    config: FPSAConfig,
    options: CompileOptions,
    pass_names: list[str],
    cache: StageCache | None,
) -> ShardCompileResult:
    """Run the backend pipeline over one shard's preloaded core-op graph."""
    from ..core.pipeline import CompileContext  # local: keeps import cycles out

    manager = PassManager(resolve_passes(pass_names), preloaded=("coreops",))
    ctx = CompileContext(graph=None, config=config, options=options)
    ctx.coreops = shard.coreops
    timings = manager.run(ctx, cache=cache)
    return ShardCompileResult(
        shard=shard,
        mapping=ctx.mapping,
        performance=ctx.performance,
        bounds=ctx.bounds,
        pnr=ctx.pnr,
        bitstream=ctx.bitstream,
        timings=timings,
        cache_stats=ctx.cache_stats,
    )


def _compile_shard(payload) -> ShardCompileResult:
    """Pool worker (module-level so process pools can pickle it)."""
    return run_backend(*payload)


def compile_shards(
    plan: PartitionResult,
    config: FPSAConfig,
    options: CompileOptions,
    pass_names: list[str],
    useful_ops_per_sample: float,
    jobs: int | None = 1,
    cache: StageCache | None = None,
) -> list[ShardCompileResult]:
    """Compile every shard of a partition plan, optionally in parallel.

    ``jobs=1`` compiles sequentially, sharing ``cache`` across the shards;
    ``None`` (``min(cpu_count, 8)``) or ``> 1`` spreads the shards over a
    :class:`~repro.core.api.WorkerPool` of at most one worker a shard,
    where ``cache`` arrives as each worker's copy of it
    (:meth:`StageCache.__reduce__`).
    """
    if jobs is not None and jobs < 1:
        raise InvalidRequestError(
            f"jobs must be >= 1, got {jobs}", details={"jobs": jobs}
        )
    shard_macs = [shard.coreops.total_macs() for shard in plan.shards]
    total_macs = sum(shard_macs)
    payloads = []
    for shard, macs in zip(plan.shards, shard_macs, strict=True):
        if total_macs > 0:
            fraction = macs / total_macs
        else:
            fraction = shard.pes / plan.total_pes if plan.total_pes else 1.0
        payloads.append(
            (
                shard,
                config,
                shard_options(options, plan, shard, useful_ops_per_sample * fraction),
                list(pass_names),
                cache,
            )
        )
    if jobs is None:
        jobs = min(os.cpu_count() or 1, _MAX_AUTO_JOBS)
    if jobs == 1 or len(payloads) < 2:
        return [_compile_shard(payload) for payload in payloads]
    if "pnr" in pass_names:  # every shard places: import P&R once, before the fork
        from ..pnr import pnr as _pnr  # noqa: F401
    with WorkerPool(min(jobs, len(payloads))) as pool:
        futures = [pool.submit(_compile_shard, payload) for payload in payloads]
        return [future.result() for future in futures]


# --------------------------------------------------------------------------
# recombination under the inter-chip link model
# --------------------------------------------------------------------------


def combine_performance(
    plan: PartitionResult,
    shard_results: list[ShardCompileResult],
    config: FPSAConfig,
    useful_ops_per_sample: float,
) -> PerformanceReport | None:
    """Fold per-shard analytic reports into one end-to-end report.

    The multi-chip pipeline is paced by its slowest chip *and* by the
    busiest chip-to-chip link (cut traffic crosses serial links, which —
    unlike the on-chip fabric — impose a shared-medium throughput ceiling).
    End-to-end latency chains the shard latencies and charges one link
    crossing per directed chip pair carrying cut traffic.
    """
    reports = [r.performance for r in shard_results]
    if any(report is None for report in reports):
        return None
    link = InterChipLinkModel(config.interchip, value_bits=config.pe.io_bits)
    pair_traffic = plan.pair_traffic()

    throughput = min(r.throughput_samples_per_s for r in reports)
    throughput = min(throughput, link.sample_rate_limit(pair_traffic))

    hop_ns = sum(link.hop_latency_ns(values) for values in pair_traffic.values())
    latency_us = sum(r.latency_us for r in reports) + hop_ns / 1e3

    ideal_rates = [
        r.ideal_ops / r.ops_per_sample for r in reports if r.ops_per_sample > 0
    ]
    ideal_throughput = min(ideal_rates) if ideal_rates else throughput

    area = sum(r.area_mm2 for r in reports)
    peak_ops = sum(r.peak_ops for r in reports)
    return PerformanceReport(
        model=plan.model,
        architecture=f"FPSA x{plan.num_chips} chips",
        area_mm2=area,
        throughput_samples_per_s=throughput,
        latency_us=latency_us,
        ops_per_sample=useful_ops_per_sample,
        peak_ops=peak_ops,
        ideal_ops=useful_ops_per_sample * ideal_throughput,
        real_ops=useful_ops_per_sample * throughput,
        latency_breakdown=LatencyBreakdown(
            computation_ns=max(r.latency_breakdown.computation_ns for r in reports),
            communication_ns=max(r.latency_breakdown.communication_ns for r in reports),
        ),
        n_pe=sum(r.n_pe for r in reports),
        duplication_degree=plan.duplication_degree,
    )


def combine_bounds(
    plan: PartitionResult, shard_results: list[ShardCompileResult]
) -> "UtilizationBounds | None":
    """PE-weighted recombination of the per-shard utilization bounds."""
    from ..perf.bounds import UtilizationBounds

    bounds = [r.bounds for r in shard_results]
    if any(b is None for b in bounds):
        return None
    weights = [shard.pes for shard in plan.shards]
    total = sum(weights) or 1
    peak = bounds[0].peak_density
    spatial = sum(b.spatial_utilization * w for b, w in zip(bounds, weights, strict=True)) / total
    temporal = sum(b.temporal_utilization * w for b, w in zip(bounds, weights, strict=True)) / total
    return UtilizationBounds(
        model=plan.model,
        duplication_degree=plan.duplication_degree,
        peak_density=peak,
        spatial_bound=peak * spatial,
        temporal_bound=peak * spatial * temporal,
    )
