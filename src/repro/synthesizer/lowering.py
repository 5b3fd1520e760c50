"""Lowering rules: computational-graph operations -> core-op groups.

Each weighted CG operation becomes one or more :class:`WeightGroup` entries
in the core-op graph.  The lowering follows the NN-compiler approach the
paper adopts (Ji et al., ASPLOS'18): every operation is implemented with
core-ops (low-precision VMM + ReLU), either exactly (convolution, dense,
average pooling, addition, reductions) or via a dedicated ReLU-identity /
MLP construction (max pooling, LRN).

Small logical units (2x2 pairwise-max blocks, 2x1 adders, kxk averaging
columns) are packed block-diagonally into one crossbar-sized matrix so
that a single PE processes many units per VMM; the resulting *density*
(< 1) is what degrades the spatial-utilization bound of Figure 8c for
pooling-heavy networks such as GoogLeNet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.params import ceil_div
from ..errors import SynthesisError
from ..graph.graph import GraphNode
from ..graph.ops import (
    LRN,
    Add,
    AvgPool2d,
    Conv2d,
    Dense,
    GlobalAvgPool,
    MaxPool2d,
)
from ..graph.tensor import TensorSpec
from .coreop import GRAPH_INPUT, CoreOpGraph, WeightGroup
from .splitting import plan_tiling

__all__ = ["LoweringContext", "LoweringError"]


class LoweringError(SynthesisError):
    """Raised when an operation cannot be lowered to core-ops.

    A :class:`~repro.errors.SynthesisError` (and, transitively, a
    ``ValueError``, which it was before the typed hierarchy existed).
    """


@dataclass
class LoweringContext:
    """Mutable state shared by the lowering rules of one synthesis run."""

    graph: CoreOpGraph
    crossbar_rows: int = 256
    crossbar_cols: int = 256
    #: node name -> names of the groups that produce that node's output
    #: (GRAPH_INPUT for graph inputs / passthrough chains back to the input).
    producers: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------ utilities
    def _add_group(self, group: WeightGroup) -> WeightGroup:
        return self.graph.add_group(group)

    def _connect(self, producer_names: list[str], group: WeightGroup, values: int) -> None:
        if not producer_names:
            producer_names = [GRAPH_INPUT]
        share = max(1, values // max(len(producer_names), 1))
        for producer in producer_names:
            self.graph.add_edge(producer, group.name, share)

    def _pack_units(self, unit_rows: int, unit_cols: int) -> int:
        """How many independent small units fit block-diagonally in a crossbar."""
        by_rows = self.crossbar_rows // unit_rows
        by_cols = self.crossbar_cols // unit_cols
        packed = min(by_rows, by_cols)
        if packed < 1:
            raise LoweringError(
                f"unit of {unit_rows}x{unit_cols} does not fit a "
                f"{self.crossbar_rows}x{self.crossbar_cols} crossbar"
            )
        return packed

    # ----------------------------------------------------------- primitives
    def lower_matmul(
        self,
        name: str,
        source: str,
        rows: int,
        cols: int,
        reuse: int,
        producer_names: list[str],
    ) -> list[str]:
        """Lower a (rows x cols) weight matrix applied ``reuse`` times.

        Returns the names of the groups producing the final outputs
        (the matmul group itself, or the last reduction group when row
        splitting required partial-sum reductions).
        """
        matmul = self._add_group(
            WeightGroup(
                name=name,
                source=source,
                kind="matmul",
                rows=rows,
                cols=cols,
                reuse=reuse,
                density=1.0,
                macs_per_instance=rows * cols,
            )
        )
        self._connect(producer_names, matmul, values=rows)

        plan = plan_tiling(rows, cols, self.crossbar_rows, self.crossbar_cols)
        if not plan.needs_reduction:
            return [matmul.name]

        # Partial sums from the row tiles must be added: build reduction
        # stages until a single value per output remains.
        current = [matmul.name]
        partials = plan.n_row_tiles
        stage = 0
        while partials > 1:
            fan_in = min(partials, self.crossbar_rows)
            packed = self._pack_units(fan_in, 1)
            outputs = cols
            instances_per_use = ceil_div(outputs, packed)
            reduce_group = self._add_group(
                WeightGroup(
                    name=f"{name}/reduce{stage}",
                    source=source,
                    kind="reduce",
                    rows=fan_in * packed,
                    cols=packed,
                    reuse=reuse * instances_per_use,
                    density=1.0 / packed,
                    macs_per_instance=fan_in * packed,
                )
            )
            for producer in current:
                self.graph.add_edge(producer, reduce_group.name, fan_in * packed)
            current = [reduce_group.name]
            partials = ceil_div(partials, fan_in)
            stage += 1
        return current

    # ------------------------------------------------------------ operations
    def lower_conv(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, Conv2d):
            raise LoweringError(f"lower_conv called on {node.kind}")
        out = node.output
        reuse = out.height * out.width
        rows, cols = op.weight_matrix_shape(specs)
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])
        outputs: list[str] = []
        for g in range(op.groups):
            suffix = f"/g{g}" if op.groups > 1 else ""
            outputs.extend(
                self.lower_matmul(
                    name=f"{node.name}{suffix}",
                    source=node.name,
                    rows=rows,
                    cols=cols,
                    reuse=reuse,
                    producer_names=producers,
                )
            )
        return outputs

    def lower_dense(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, Dense):
            raise LoweringError(f"lower_dense called on {node.kind}")
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])
        return self.lower_matmul(
            name=node.name,
            source=node.name,
            rows=specs[0].size,
            cols=op.out_features,
            reuse=1,
            producer_names=producers,
        )

    def lower_maxpool(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, MaxPool2d):
            raise LoweringError(f"lower_maxpool called on {node.kind}")
        window = op.kernel * op.kernel
        if window < 2:
            # degenerate 1x1 pooling: pure wiring
            return self.producers.get(node.inputs[0], [GRAPH_INPUT])
        outputs = node.output.size
        pairwise_ops = outputs * (window - 1)
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])

        # stage A per pair: [ReLU(a - b), ReLU(b)] — a 2x2 unit with 3
        # useful weights; stage B: ReLU(x + y) — a 2x1 unit with 2 weights.
        packed_a = self._pack_units(2, 2)
        packed_b = self._pack_units(2, 1)
        stage_a = self._add_group(
            WeightGroup(
                name=f"{node.name}/max_diff",
                source=node.name,
                kind="pool_max",
                rows=2 * packed_a,
                cols=2 * packed_a,
                reuse=max(1, ceil_div(pairwise_ops, packed_a)),
                density=3.0 / (4.0 * packed_a),
                macs_per_instance=3 * packed_a,
            )
        )
        self._connect(producers, stage_a, values=2 * packed_a)
        stage_b = self._add_group(
            WeightGroup(
                name=f"{node.name}/max_sum",
                source=node.name,
                kind="pool_max",
                rows=2 * packed_b,
                cols=packed_b,
                reuse=max(1, ceil_div(pairwise_ops, packed_b)),
                density=1.0 / packed_b,
                macs_per_instance=2 * packed_b,
            )
        )
        self.graph.add_edge(stage_a.name, stage_b.name, 2 * packed_b)
        return [stage_b.name]

    def _lower_average(
        self, node: GraphNode, window: int, outputs: int, producers: list[str]
    ) -> list[str]:
        packed = self._pack_units(window, 1)
        group = self._add_group(
            WeightGroup(
                name=f"{node.name}/avg",
                source=node.name,
                kind="pool_avg",
                rows=window * packed,
                cols=packed,
                reuse=max(1, ceil_div(outputs, packed)),
                density=1.0 / packed,
                macs_per_instance=window * packed,
            )
        )
        self._connect(producers, group, values=window * packed)
        return [group.name]

    def lower_avgpool(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, AvgPool2d):
            raise LoweringError(f"lower_avgpool called on {node.kind}")
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])
        return self._lower_average(
            node, window=op.kernel * op.kernel, outputs=node.output.size, producers=producers
        )

    def lower_global_avgpool(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, GlobalAvgPool):
            raise LoweringError(f"lower_global_avgpool called on {node.kind}")
        x = specs[0]
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])
        return self._lower_average(
            node, window=x.height * x.width, outputs=x.channels, producers=producers
        )

    def lower_add(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        op = node.op
        if not isinstance(op, Add):
            raise LoweringError(f"lower_add called on {node.kind}")
        outputs = node.output.size
        packed = self._pack_units(2, 1)
        group = self._add_group(
            WeightGroup(
                name=f"{node.name}/add",
                source=node.name,
                kind="add",
                rows=2 * packed,
                cols=packed,
                reuse=max(1, ceil_div(outputs, packed)),
                density=1.0 / packed,
                macs_per_instance=2 * packed,
            )
        )
        producers: list[str] = []
        for input_name in node.inputs:
            producers.extend(self.producers.get(input_name, [GRAPH_INPUT]))
        self._connect(producers, group, values=2 * packed)
        return [group.name]

    def lower_lrn(self, node: GraphNode, specs: list[TensorSpec]) -> list[str]:
        """Approximate LRN with a two-layer MLP applied per spatial position.

        The NN compiler the paper builds on approximates non-VMM operations
        with multilayer perceptrons; we model that as two channel-mixing
        matrices of shape (C, C) with a banded density of ``local_size``
        neighbouring channels, reused at every spatial position.
        """
        op = node.op
        if not isinstance(op, LRN):
            raise LoweringError(f"lower_lrn called on {node.kind}")
        x = specs[0]
        channels = x.channels
        reuse = x.height * x.width
        density = min(1.0, op.local_size / channels)
        producers = self.producers.get(node.inputs[0], [GRAPH_INPUT])
        hidden = self._add_group(
            WeightGroup(
                name=f"{node.name}/mlp0",
                source=node.name,
                kind="lrn",
                rows=channels,
                cols=channels,
                reuse=reuse,
                density=density,
                macs_per_instance=int(channels * channels * density),
            )
        )
        self._connect(producers, hidden, values=channels)
        output = self._add_group(
            WeightGroup(
                name=f"{node.name}/mlp1",
                source=node.name,
                kind="lrn",
                rows=channels,
                cols=channels,
                reuse=reuse,
                density=density,
                macs_per_instance=int(channels * channels * density),
            )
        )
        self.graph.add_edge(hidden.name, output.name, channels)
        return [output.name]
