"""The spatial-to-temporal mapping stage as a compilation pass."""

from __future__ import annotations

from ..core.cache import config_fingerprint, coreops_fingerprint, fingerprint
from ..core.pipeline import CompileContext, CompilePass, register_pass
from .mapper import SpatialTemporalMapper

__all__ = ["MappingPass", "mapping_fingerprint"]


def mapping_fingerprint(ctx: CompileContext) -> str:
    """Fingerprint of everything that determines the mapping result.

    Keyed on the ``coreops`` artifact the pass actually consumes (not the
    graph it was synthesized from), so a custom core-op producer can never
    alias a standard-pipeline cache entry.  The capacity bound and the
    partition backend's pace overrides are part of the key: a compile that
    must raise ``CapacityError`` may not alias a cached unchecked mapping.
    """
    options = ctx.options
    return fingerprint(
        # v1 entries pickled a netlist and no config; v2 ones could carry a
        # detailed schedule
        "mapping-v3",
        coreops_fingerprint(ctx.coreops),
        config_fingerprint(ctx.config),
        options.duplication_degree,
        options.pe_budget,
        options.target_iterations,
        options.replication,
        options.max_pes,
    )


@register_pass
class MappingPass(CompilePass):
    """Map the core-op graph onto function blocks (allocation + control
    plan + block counts; the netlist is derived from these by its first
    reader)."""

    name = "mapping"
    requires = ("coreops",)
    provides = ("mapping",)

    def run(self, ctx: CompileContext) -> None:
        options = ctx.options
        ctx.mapping = SpatialTemporalMapper(ctx.config).map(
            ctx.coreops,
            duplication_degree=options.duplication_degree,
            pe_budget=options.pe_budget,
            target_iterations=options.target_iterations,
            replication=options.replication,
            max_pes=options.max_pes,
        )

    def cache_key(self, ctx: CompileContext) -> str:
        return mapping_fingerprint(ctx)
