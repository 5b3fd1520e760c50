"""The neural synthesizer: computational graph -> core-op graph.

The synthesizer walks the CG in topological order, folds inference-time
no-ops (ReLU fusion, BatchNorm folding, Flatten/Dropout/Concat wiring) and
lowers every remaining operation to core-op weight groups using the rules
of :mod:`repro.synthesizer.lowering`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.params import PEParams
from ..graph.graph import ComputationalGraph, GraphNode
from ..graph.ops import (
    LRN,
    Add,
    AvgPool2d,
    BatchNorm,
    Concat,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool,
    InputOp,
    MaxPool2d,
    ReLU,
    Softmax,
)
from .coreop import GRAPH_INPUT, GRAPH_OUTPUT, CoreOpGraph
from .lowering import LoweringContext, LoweringError

__all__ = ["SynthesisOptions", "NeuralSynthesizer", "synthesize"]


@dataclass(frozen=True)
class SynthesisOptions:
    """Options controlling the synthesis.

    Attributes
    ----------
    crossbar_rows / crossbar_cols:
        Logical crossbar size of the target PE.
    lower_lrn:
        When False, LRN layers are treated as wiring (identity) instead of
        being approximated by MLP core-ops.  The paper synthesizes them; the
        flag exists for ablations.
    lower_pooling:
        When False, max/avg pooling is treated as wiring.  Used by the
        ablation benchmarks to quantify how much of the PE count pooling
        synthesis consumes (Section 7.3 reports 67.2% for GoogLeNet).
    """

    crossbar_rows: int = 256
    crossbar_cols: int = 256
    lower_lrn: bool = True
    lower_pooling: bool = True

    @classmethod
    def from_pe(cls, pe: PEParams, **overrides) -> "SynthesisOptions":
        return cls(crossbar_rows=pe.rows, crossbar_cols=pe.logical_cols, **overrides)


class NeuralSynthesizer:
    """Synthesize a trained NN's computational graph into a core-op graph."""

    #: operation types that are pure wiring / folded at inference time.
    _PASSTHROUGH_OPS = (ReLU, Flatten, Dropout, Softmax, BatchNorm, Concat)

    def __init__(self, options: SynthesisOptions | None = None):
        self.options = options if options is not None else SynthesisOptions()

    def synthesize(self, graph: ComputationalGraph) -> CoreOpGraph:
        """Lower ``graph`` to a grouped core-op graph."""
        view = graph.derived()
        coreops = CoreOpGraph(graph.name)
        ctx = LoweringContext(
            graph=coreops,
            crossbar_rows=self.options.crossbar_rows,
            crossbar_cols=self.options.crossbar_cols,
        )

        for node in view.order:
            producers = self._lower_node(ctx, node, view.specs[node.name])
            ctx.producers[node.name] = producers

        # mark graph outputs so downstream tools know which groups feed the host
        for node in view.outputs:
            for producer in ctx.producers.get(node.name, []):
                if producer != GRAPH_INPUT:
                    coreops.add_edge(producer, GRAPH_OUTPUT, node.output.size)
        return coreops

    # ------------------------------------------------------------------ rules
    def _passthrough(self, ctx: LoweringContext, node: GraphNode) -> list[str]:
        producers: list[str] = []
        for input_name in node.inputs:
            producers.extend(ctx.producers.get(input_name, [GRAPH_INPUT]))
        return producers or [GRAPH_INPUT]

    def _lower_node(
        self, ctx: LoweringContext, node: GraphNode, specs
    ) -> list[str]:
        op = node.op
        if isinstance(op, InputOp):
            return [GRAPH_INPUT]
        if isinstance(op, self._PASSTHROUGH_OPS):
            return self._passthrough(ctx, node)
        if isinstance(op, Conv2d):
            return ctx.lower_conv(node, specs)
        if isinstance(op, Dense):
            return ctx.lower_dense(node, specs)
        if isinstance(op, Add):
            return ctx.lower_add(node, specs)
        if isinstance(op, MaxPool2d):
            if not self.options.lower_pooling:
                return self._passthrough(ctx, node)
            return ctx.lower_maxpool(node, specs)
        if isinstance(op, AvgPool2d):
            if not self.options.lower_pooling:
                return self._passthrough(ctx, node)
            return ctx.lower_avgpool(node, specs)
        if isinstance(op, GlobalAvgPool):
            if not self.options.lower_pooling:
                return self._passthrough(ctx, node)
            return ctx.lower_global_avgpool(node, specs)
        if isinstance(op, LRN):
            if not self.options.lower_lrn:
                return self._passthrough(ctx, node)
            return ctx.lower_lrn(node, specs)
        raise LoweringError(f"no lowering rule for operation {node.kind!r}")


def synthesize(
    graph: ComputationalGraph, options: SynthesisOptions | None = None
) -> CoreOpGraph:
    """Convenience wrapper around :class:`NeuralSynthesizer`."""
    return NeuralSynthesizer(options).synthesize(graph)
