"""The computational graph (CG) container.

A :class:`ComputationalGraph` is a directed acyclic graph of named nodes,
each holding one :class:`~repro.graph.ops.Operation`.  It is the programming
model the neural synthesizer consumes (Section 5 of the paper): deep-learning
frameworks express NNs as CGs, and the software stack lowers the CG to the
core-op graph, the function-block netlist and finally the chip configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .ops import InputOp, Operation
from .tensor import TensorSpec

__all__ = ["GraphNode", "ComputationalGraph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a graph is structurally invalid."""


@dataclass(frozen=True)
class GraphNode:
    """One node of the computational graph; immutable, so only
    :meth:`ComputationalGraph.add` changes a graph."""

    name: str
    op: Operation
    inputs: tuple[str, ...]
    output: TensorSpec

    @property
    def kind(self) -> str:
        return self.op.kind

    @property
    def is_input(self) -> bool:
        return isinstance(self.op, InputOp)


class _View:
    """What a compile reads of one version of a graph, validated once: the
    order checked, each node's input specs, the output nodes and, on first
    read, the operation count.  Building it is the validation: Kahn's order
    (ready nodes first in, first out, seeded in insertion order), then
    each node's arity and shape re-checked along it.  The outputs are the
    nodes no node consumes, in insertion order (as ``output_nodes()``)."""

    def __init__(self, graph: "ComputationalGraph"):
        self.version = graph.mutation_count
        nodes = graph._nodes
        in_degree = {name: len(node.inputs) for name, node in nodes.items()}
        ready = deque(name for name in graph._order if not in_degree[name])
        consumers: dict[str, list[str]] = {name: [] for name in nodes}
        for name, node in nodes.items():
            for producer in node.inputs:
                consumers[producer].append(name)
        order: list[GraphNode] = []
        while ready:
            name = ready.popleft()
            order.append(nodes[name])
            for consumer in consumers[name]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(nodes):
            raise GraphValidationError(f"graph {graph.name!r} contains a cycle")
        self.specs: dict[str, list[TensorSpec]] = {}
        for node in order:
            self.specs[node.name] = specs = [nodes[i].output for i in node.inputs]
            node.op.validate_arity(specs)
            inferred = node.op.infer_shape(specs)
            if inferred.shape != node.output.shape:
                raise GraphValidationError(
                    f"node {node.name!r} output shape {node.output.shape} does not "
                    f"match inferred shape {inferred.shape}"
                )
        if not any(node.is_input for node in order):
            raise GraphValidationError(f"graph {graph.name!r} has no input nodes")
        # the graph's nodes, not the graph: no reference cycle
        self.order = tuple(order)
        self.outputs = tuple(nodes[name] for name in graph._order if not consumers[name])

    @cached_property
    def total_ops(self) -> int:
        return sum(node.op.op_count(self.specs[node.name]) for node in self.order)


class ComputationalGraph:
    """A DAG of tensor operations with shape inference at construction time.

    What a compile reads of it is :meth:`derived`: one validated view per
    version (``mutation_count``, as the fingerprint), never pickled."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._nodes: dict[str, GraphNode] = {}
        self._order: list[str] = []
        #: bumped by every structural mutation; memoized fingerprints
        #: (:func:`repro.core.cache.graph_fingerprint`) key on it so a
        #: mutated graph can never serve a stale digest.
        self.mutation_count = 0

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
        inputs = tuple(inputs or ())
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
        return iter(self.derived().order)

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
    def derived(self) -> _View:
        """The validated view of this version, derived on first use after
        each :meth:`add`; a graph that fails validation raises and keeps
        no view."""
        view = self.__dict__.get("_view")
        if view is None or view.version != self.mutation_count:
            view = self._view = _View(self)
        return view

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_view", None)
        return state

    def topological(self) -> list[GraphNode]:
        """The nodes in the validated order of :meth:`derived`: raises
        :class:`GraphValidationError` where :meth:`validate` does."""
        return list(self.derived().order)

    def validate(self) -> list[GraphNode]:
        """Full structural validation (acyclicity, arity, shape consistency,
        an input node), once per version; returns the topological order it
        checked."""
        return list(self.derived().order)

    # ------------------------------------------------------------- counting
    def total_params(self) -> int:
        """Total number of weights in the model."""
        return sum(
            node.op.param_count(self.input_specs(node)) for node in self.nodes()
        )

    def total_ops(self) -> int:
        """Total number of arithmetic operations per inference (MAC = 2 ops),
        counted once per version (:meth:`derived`)."""
        return self.derived().total_ops

    def summary(self) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"{self.name}: {len(self)} nodes"]
        header = f"{'name':<28} {'op':<14} {'output':<20} {'params':>12} {'ops':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        view = self.derived()
        for node in view.order:
            specs = view.specs[node.name]
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
