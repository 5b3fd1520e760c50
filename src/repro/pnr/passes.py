"""The placement & routing stage as a compilation pass."""

from __future__ import annotations

from ..core.cache import config_fingerprint, fingerprint, netlist_fingerprint
from ..core.pipeline import CompileContext, CompilePass, register_pass
from .options import PnROptions

__all__ = ["PnRPass"]

#: version salt of the P&R artifact: bumped whenever the engine's output
#: changes for the same inputs, or its pickled layout does (v4 = serial
#: annealer, two proposals per movable block per temperature; v5 = routed
#: trees and paths held as node-id tuples, every routing unchanged; v6 =
#: the anneal starts cold from a quadratic start, not a random one; v7 =
#: the search's ties prefer a track rotated by the net's index).
_PNR_ARTIFACT_VERSION = "pnr-v7"


@register_pass
class PnRPass(CompilePass):
    """Simulated-annealing placement + PathFinder routing of the netlist."""

    name = "pnr"
    requires = ("mapping",)
    provides = ("pnr",)

    def run(self, ctx: CompileContext) -> None:
        from .pnr import PlaceAndRoute  # numpy: only a compile that places loads it

        options = ctx.options
        ctx.pnr = PlaceAndRoute(
            ctx.config,
            channel_width=options.pnr_channel_width,
            seed=options.effective_pnr_seed(),
            options=PnROptions(jobs=options.pnr_jobs),
        ).run(ctx.mapping.netlist)

    def cache_key(self, ctx: CompileContext) -> str:
        # keyed on the netlist artifact actually routed, so any mapping
        # producer (standard or custom) gets a correct cache entry.
        # ``pnr_jobs`` is deliberately absent: nothing reads it.
        return fingerprint(
            _PNR_ARTIFACT_VERSION,
            netlist_fingerprint(ctx.mapping.netlist),
            config_fingerprint(ctx.config),
            ctx.options.pnr_channel_width,
            ctx.options.effective_pnr_seed(),
        )
