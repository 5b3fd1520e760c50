"""Static analyses of computational graphs.

The motivation analysis of Section 3 (load imbalance between layers,
communication traffic) and the bounds models of :mod:`repro.perf.bounds`
work from per-layer statistics: weights, operations, weight-reuse degree
and activation traffic.  This module extracts them from a
:class:`~repro.graph.graph.ComputationalGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ComputationalGraph, GraphNode
from .ops import Conv2d, Dense

__all__ = ["LayerStats", "GraphProfile", "profile_graph"]


@dataclass(frozen=True)
class LayerStats:
    """Per-layer statistics of one weighted node (conv / dense)."""

    name: str
    kind: str
    params: int
    ops: int
    output_size: int
    input_size: int
    reuse_degree: int
    weight_matrix: tuple[int, int]


@dataclass
class GraphProfile:
    """Aggregated per-layer statistics of one model."""

    name: str
    layers: list[LayerStats]
    total_params: int
    total_ops: int
    total_activation_values: int

    def weight_fraction(self, layer: LayerStats) -> float:
        """Fraction of the model's weights held by ``layer``."""
        if self.total_weighted_params == 0:
            return 0.0
        return layer.params / self.total_weighted_params

    def ops_fraction(self, layer: LayerStats) -> float:
        """Fraction of the model's weighted-layer ops performed by ``layer``."""
        if self.total_weighted_ops == 0:
            return 0.0
        return layer.ops / self.total_weighted_ops

    @property
    def total_weighted_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_weighted_ops(self) -> int:
        return sum(l.ops for l in self.layers)

    @property
    def max_reuse_degree(self) -> int:
        return max((l.reuse_degree for l in self.layers), default=1)

    def imbalance(self) -> float:
        """Load-imbalance metric: the largest ratio between a layer's share
        of computation and its share of weight storage.

        For VGG16 the first convolutional layers hold ~0.03% of the weights
        but perform ~12% of the computation, which is exactly this ratio
        being very large; an MLP has imbalance ~1.
        """
        worst = 1.0
        for layer in self.layers:
            weight_share = self.weight_fraction(layer)
            ops_share = self.ops_fraction(layer)
            if weight_share > 0:
                worst = max(worst, ops_share / weight_share)
        return worst


def _reuse_degree(node: GraphNode, graph: ComputationalGraph) -> int:
    """How many times the node's weights are reused per inference.

    A convolution applies its kernel to every output position, so the reuse
    degree is ``H_out * W_out``; a dense layer uses its weights once.
    """
    if isinstance(node.op, Conv2d):
        out = node.output
        return out.height * out.width
    return 1


def profile_graph(graph: ComputationalGraph) -> GraphProfile:
    """Extract per-layer statistics for all weighted layers of ``graph``."""
    view = graph.derived()
    layers: list[LayerStats] = []
    total_activation = 0
    for node in view.order:
        specs = view.specs[node.name]
        total_activation += node.output.size
        if not isinstance(node.op, (Conv2d, Dense)):
            continue
        if isinstance(node.op, Conv2d):
            matrix = node.op.weight_matrix_shape(specs)
        else:
            matrix = (specs[0].size, node.op.out_features)
        layers.append(
            LayerStats(
                name=node.name,
                kind=node.kind,
                params=node.op.param_count(specs),
                ops=node.op.op_count(specs),
                output_size=node.output.size,
                input_size=specs[0].size if specs else 0,
                reuse_degree=_reuse_degree(node, graph),
                weight_matrix=matrix,
            )
        )
    return GraphProfile(
        name=graph.name,
        layers=layers,
        total_params=graph.total_params(),
        total_ops=view.total_ops,
        total_activation_values=total_activation,
    )
