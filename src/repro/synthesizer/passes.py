"""The synthesis stage as a compilation pass."""

from __future__ import annotations

from ..core.cache import fingerprint, graph_fingerprint
from ..core.pipeline import CompileContext, CompilePass, register_pass
from .synthesizer import NeuralSynthesizer

__all__ = ["SynthesisPass"]


@register_pass
class SynthesisPass(CompilePass):
    """Lower the computational graph to the grouped core-op graph."""

    name = "synthesis"
    requires = ()
    provides = ("coreops",)

    def run(self, ctx: CompileContext) -> None:
        options = ctx.resolved_synthesis_options()
        ctx.coreops = NeuralSynthesizer(options).synthesize(ctx.graph)

    def cache_key(self, ctx: CompileContext) -> str:
        return fingerprint(
            "synthesis",
            graph_fingerprint(ctx.graph),
            ctx.resolved_synthesis_options(),
        )
