"""The performance-model stages as compilation passes."""

from __future__ import annotations

from ..core.pipeline import CompileContext, CompilePass, register_pass
from .analytic import FPSAArchitecture, evaluate_design_point
from .bounds import compute_bounds

__all__ = ["PerfPass", "BoundsPass"]


def _useful_ops(ctx: CompileContext) -> float:
    """Useful-operation count the OPS figures normalise against.

    The option override serves per-shard backend compiles of a partitioned
    model, which carry a shard core-op graph but no computational graph:
    each shard reports its proportional share of the model's operations.
    """
    if ctx.options.useful_ops_per_sample is not None:
        return ctx.options.useful_ops_per_sample
    return ctx.graph.total_ops()


@register_pass
class PerfPass(CompilePass):
    """Evaluate the analytic pipelined performance model."""

    name = "perf"
    requires = ("coreops", "mapping")
    provides = ("performance",)

    def run(self, ctx: CompileContext) -> None:
        ctx.performance = evaluate_design_point(
            ctx.coreops,
            ctx.mapping.allocation,
            _useful_ops(ctx),
            FPSAArchitecture(ctx.config),
            config=ctx.config,
            # the mapper has counted the SMBs; the estimator need not again
            n_smb=ctx.mapping.block_counts()["n_smb"],
        )


@register_pass
class BoundsPass(CompilePass):
    """Compute the peak / spatial / temporal computational-density bounds."""

    name = "bounds"
    requires = ("coreops", "mapping")
    provides = ("bounds",)

    def run(self, ctx: CompileContext) -> None:
        ctx.bounds = compute_bounds(
            ctx.coreops, ctx.mapping.allocation, _useful_ops(ctx), ctx.config
        )
