"""The computational graph (CG) container.

A :class:`ComputationalGraph` is a directed acyclic graph of named nodes,
each holding one :class:`~repro.graph.ops.Operation`.  It is the programming
model the neural synthesizer consumes (Section 5 of the paper): deep-learning
frameworks express NNs as CGs, and the software stack lowers the CG to the
core-op graph, the function-block netlist and finally the chip configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ops import InputOp, Operation
from .tensor import TensorSpec

__all__ = ["GraphNode", "ComputationalGraph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a graph is structurally invalid."""


@dataclass
class GraphNode:
    """One node of the computational graph."""

    name: str
    op: Operation
    inputs: list[str]
    output: TensorSpec

    @property
    def kind(self) -> str:
        return self.op.kind

    @property
    def is_input(self) -> bool:
        return isinstance(self.op, InputOp)


class ComputationalGraph:
    """A DAG of tensor operations with shape inference at construction time."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._nodes: dict[str, GraphNode] = {}
        self._order: list[str] = []
        #: bumped by every structural mutation; memoized fingerprints
        #: (:func:`repro.core.cache.graph_fingerprint`) key on it so a
        #: mutated graph can never serve a stale digest.
        self.mutation_count = 0
        #: ``(mutation_count, total_ops)`` of the last count; see
        #: :meth:`total_ops`.
        self._total_ops_memo: tuple[int, int] | None = None

    # ------------------------------------------------------------- building
    def add(self, name: str, op: Operation, inputs: list[str] | None = None) -> GraphNode:
        """Add a node and infer its output shape.

        Parameters
        ----------
        name:
            Unique node name.
        op:
            The operation.
        inputs:
            Names of producer nodes (in order).  Must already exist.
        """
        if name in self._nodes:
            raise GraphValidationError(f"duplicate node name {name!r}")
        inputs = list(inputs or [])
        missing = [i for i in inputs if i not in self._nodes]
        if missing:
            raise GraphValidationError(
                f"node {name!r} references unknown inputs {missing}"
            )
        input_specs = [self._nodes[i].output for i in inputs]
        op.validate_arity(input_specs)
        output = op.infer_shape(input_specs).with_name(name)
        node = GraphNode(name=name, op=op, inputs=inputs, output=output)
        self._nodes[name] = node
        self._order.append(name)
        self.mutation_count += 1
        return node

    # ------------------------------------------------------------- querying
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.topological())

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in graph {self.name!r}") from None  # repro-lint: disable=ERR001

    def nodes(self) -> list[GraphNode]:
        """All nodes in insertion order."""
        return [self._nodes[n] for n in self._order]

    def input_nodes(self) -> list[GraphNode]:
        return [n for n in self.nodes() if n.is_input]

    def output_nodes(self) -> list[GraphNode]:
        """Nodes whose output is not consumed by any other node."""
        consumed: set[str] = set()
        for node in self.nodes():
            consumed.update(node.inputs)
        return [n for n in self.nodes() if n.name not in consumed]

    def consumers(self, name: str) -> list[GraphNode]:
        """Nodes that consume the output of ``name``."""
        return [n for n in self.nodes() if name in n.inputs]

    def input_specs(self, node: GraphNode) -> list[TensorSpec]:
        return [self._nodes[i].output for i in node.inputs]

    # ----------------------------------------------------------- validation
    def topological(self) -> list[GraphNode]:
        """Nodes in topological order (raises on cycles).

        Insertion order already guarantees producers precede consumers when
        nodes were added through :meth:`add`, but the method re-derives the
        order defensively so externally mutated graphs are caught.
        """
        in_degree = {name: len(node.inputs) for name, node in self._nodes.items()}
        ready = [name for name, deg in in_degree.items() if deg == 0]
        # preserve insertion order among ready nodes for determinism
        ready.sort(key=self._order.index)
        order: list[GraphNode] = []
        consumers: dict[str, list[str]] = {name: [] for name in self._nodes}
        for name, node in self._nodes.items():
            for producer in node.inputs:
                consumers[producer].append(name)
        while ready:
            name = ready.pop(0)
            order.append(self._nodes[name])
            for consumer in consumers[name]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._nodes):
            raise GraphValidationError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> list[GraphNode]:
        """Full structural validation (acyclicity, arity, shape consistency);
        returns the topological order it checked."""
        order = self.topological()
        for node in order:
            specs = self.input_specs(node)
            node.op.validate_arity(specs)
            inferred = node.op.infer_shape(specs)
            if inferred.shape != node.output.shape:
                raise GraphValidationError(
                    f"node {node.name!r} output shape {node.output.shape} does not "
                    f"match inferred shape {inferred.shape}"
                )
        if not self.input_nodes():
            raise GraphValidationError(f"graph {self.name!r} has no input nodes")
        return order

    # ------------------------------------------------------------- counting
    def total_params(self) -> int:
        """Total number of weights in the model."""
        return sum(
            node.op.param_count(self.input_specs(node)) for node in self.nodes()
        )

    def total_ops(self) -> int:
        """Total number of arithmetic operations per inference (MAC = 2 ops).

        Counted once per graph version: the ``perf`` and ``bounds`` passes
        of every compile of this graph share the result, and any
        :meth:`add` (which bumps ``mutation_count``) invalidates it.
        """
        memo = self._total_ops_memo
        if memo is None or memo[0] != self.mutation_count:
            total = sum(
                node.op.op_count(self.input_specs(node)) for node in self.nodes()
            )
            memo = self._total_ops_memo = (self.mutation_count, total)
        return memo[1]

    def summary(self) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"{self.name}: {len(self)} nodes"]
        header = f"{'name':<28} {'op':<14} {'output':<20} {'params':>12} {'ops':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for node in self.topological():
            specs = self.input_specs(node)
            shape = "x".join(str(d) for d in node.output.shape)
            lines.append(
                f"{node.name:<28} {node.kind:<14} {shape:<20} "
                f"{node.op.param_count(specs):>12,} {node.op.op_count(specs):>14,}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<63} {self.total_params():>12,} {self.total_ops():>14,}"
        )
        return "\n".join(lines)
