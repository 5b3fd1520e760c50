"""The core-op graph: the synthesizer's output representation.

A *core-op* is the only operation the FPSA hardware executes directly: a
low-precision vector-matrix multiplication followed by ReLU.  The neural
synthesizer lowers every CG operation into core-ops.

Because convolutional layers reuse the same weights for every output
position, a fully expanded core-op graph for an ImageNet CNN would contain
millions of nodes.  The synthesizer therefore emits a *grouped*
representation: a :class:`WeightGroup` describes one shared weight matrix
together with its *reuse degree* (how many core-op instances share it), and
:class:`GroupEdge` records the dataflow between groups.  The
spatial-to-temporal mapper and the performance model work directly on
groups; nothing in the compile path expands them into instances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import SynthesisError
from .splitting import TilePlan, plan_tiling

__all__ = [
    "WeightGroup",
    "GroupEdge",
    "CoreOpGraph",
    "GRAPH_INPUT",
    "GRAPH_OUTPUT",
]


@dataclass(frozen=True)
class WeightGroup:
    """One shared weight matrix and the core-op instances that reuse it.

    Attributes
    ----------
    name:
        Unique group name, e.g. ``"conv1/matmul"``.
    source:
        Name of the CG node this group was lowered from.
    kind:
        Lowering kind: ``"matmul"`` (conv/dense), ``"reduce"`` (partial-sum
        addition), ``"pool_max"``, ``"pool_avg"``, ``"add"``, ``"lrn"``.
    rows, cols:
        Shape of the (packed) logical weight matrix, before tiling.
    reuse:
        Number of core-op instances that share this weight matrix per
        inference (the paper's *reuse degree*).
    density:
        Fraction of the matrix entries holding useful weights (block-diagonal
        packings of small units have low density).
    macs_per_instance:
        Useful multiply-accumulates performed by one instance.
    """

    name: str
    source: str
    kind: str
    rows: int
    cols: int
    reuse: int
    density: float = 1.0
    macs_per_instance: int = 0

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise SynthesisError(f"group {self.name!r}: matrix dimensions must be positive")
        if self.reuse <= 0:
            raise SynthesisError(f"group {self.name!r}: reuse must be positive")
        if not 0.0 < self.density <= 1.0:
            raise SynthesisError(f"group {self.name!r}: density must lie in (0, 1]")
        if self.macs_per_instance < 0:
            raise SynthesisError(f"group {self.name!r}: macs_per_instance must be >= 0")

    def tiling(self, max_rows: int = 256, max_cols: int = 256) -> TilePlan:
        """Tile plan of this group's weight matrix."""
        return plan_tiling(self.rows, self.cols, max_rows, max_cols)

    def min_pes(self, max_rows: int = 256, max_cols: int = 256) -> int:
        """Minimum number of PEs to hold the weights once (no duplication)."""
        return self.tiling(max_rows, max_cols).n_tiles

    def instances(self, max_rows: int = 256, max_cols: int = 256) -> int:
        """Total tile-level core-op instances per inference."""
        return self.reuse * self.min_pes(max_rows, max_cols)

    @property
    def weights(self) -> int:
        """Useful weight parameters stored in the matrix."""
        return int(round(self.rows * self.cols * self.density))

    @property
    def total_macs(self) -> int:
        """Useful MACs per inference performed by all instances."""
        return self.macs_per_instance * self.reuse


@dataclass(frozen=True)
class GroupEdge:
    """Dataflow between two weight groups (or from/to the graph boundary).

    ``values_per_instance`` is the number of scalar values transferred to
    one destination core-op instance.
    """

    src: str
    dst: str
    values_per_instance: int

    def __post_init__(self) -> None:
        if self.values_per_instance < 0:
            raise SynthesisError("values_per_instance must be non-negative")


#: pseudo group names used for graph boundary edges.
GRAPH_INPUT = "__input__"
GRAPH_OUTPUT = "__output__"


class CoreOpGraph:
    """The grouped core-op graph produced by the neural synthesizer."""

    def __init__(self, name: str):
        self.name = name
        self._groups: dict[str, WeightGroup] = {}
        self._edges: list[GroupEdge] = []
        #: bumped by every structural mutation; memoized fingerprints
        #: (:func:`repro.core.cache.coreops_fingerprint`) key on it so a
        #: mutated graph can never serve a stale digest.
        self.mutation_count = 0

    # ------------------------------------------------------------- building
    def add_group(self, group: WeightGroup) -> WeightGroup:
        if group.name in self._groups:
            raise SynthesisError(f"duplicate group name {group.name!r}")
        self._groups[group.name] = group
        self.mutation_count += 1
        return group

    def add_edge(self, src: str, dst: str, values_per_instance: int) -> GroupEdge:
        for endpoint in (src, dst):
            if endpoint not in self._groups and endpoint not in (GRAPH_INPUT, GRAPH_OUTPUT):
                raise SynthesisError(f"edge references unknown group {endpoint!r}")
        edge = GroupEdge(src, dst, values_per_instance)
        self._edges.append(edge)
        self.mutation_count += 1
        return edge

    # ------------------------------------------------------------- querying
    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def group(self, name: str) -> WeightGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise KeyError(f"no group named {name!r}") from None  # repro-lint: disable=ERR001

    def groups(self) -> list[WeightGroup]:
        return list(self._groups.values())

    def edges(self) -> list[GroupEdge]:
        return list(self._edges)

    def predecessors(self, name: str) -> list[str]:
        return [e.src for e in self._edges if e.dst == name and e.src in self._groups]

    def successors(self, name: str) -> list[str]:
        return [e.dst for e in self._edges if e.src == name and e.dst in self._groups]

    def topological_groups(self) -> list[WeightGroup]:
        """Groups in topological order of the group-level dataflow."""
        names = list(self._groups)
        in_degree = {n: 0 for n in names}
        successors: dict[str, list[str]] = {n: [] for n in names}
        for edge in self._edges:
            if edge.src in self._groups and edge.dst in self._groups:
                in_degree[edge.dst] += 1
                successors[edge.src].append(edge.dst)
        ready = deque(n for n in names if in_degree[n] == 0)
        order: list[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for succ in successors[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(names):
            raise SynthesisError(f"core-op graph {self.name!r} contains a cycle")
        return [self._groups[n] for n in order]

    # ------------------------------------------------------------ statistics
    @property
    def max_reuse_degree(self) -> int:
        return max((g.reuse for g in self.groups()), default=1)

    def total_weights(self) -> int:
        return sum(g.weights for g in self.groups())

    def total_macs(self) -> int:
        return sum(g.total_macs for g in self.groups())

    def total_instances(self, max_rows: int = 256, max_cols: int = 256) -> int:
        return sum(g.instances(max_rows, max_cols) for g in self.groups())

    def min_pes(self, max_rows: int = 256, max_cols: int = 256) -> int:
        """PEs needed to hold every group's weights exactly once."""
        return sum(g.min_pes(max_rows, max_cols) for g in self.groups())

    def spatial_utilization(self, max_rows: int = 256, max_cols: int = 256) -> float:
        """Useful-MAC fraction of the crossbar capacity activated per VMM.

        Weighted by instance count so that heavily reused (and therefore
        heavily executed) groups dominate, which is what determines the
        spatial utilization bound of Figure 8c.
        """
        capacity = 0
        useful = 0
        for group in self.groups():
            plan = group.tiling(max_rows, max_cols)
            capacity += plan.crossbar_capacity_used * group.reuse
            useful += group.macs_per_instance * group.reuse
        if capacity == 0:
            return 0.0
        return min(1.0, useful / capacity)

    def summary(self) -> str:
        lines = [f"core-op graph {self.name!r}: {len(self)} groups, {len(self._edges)} edges"]
        header = (
            f"{'group':<36} {'kind':<9} {'matrix':<12} {'reuse':>8} {'tiles':>6} {'MACs/inst':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for g in self.topological_groups():
            matrix = f"{g.rows}x{g.cols}"
            lines.append(
                f"{g.name:<36} {g.kind:<9} {matrix:<12} {g.reuse:>8,} "
                f"{g.min_pes():>6} {g.macs_per_instance:>10,}"
            )
        return "\n".join(lines)
