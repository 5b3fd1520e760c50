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
from functools import cached_property
from typing import NamedTuple

from ..errors import SynthesisError
from .splitting import TilePlan, plan_tiling

__all__ = [
    "WeightGroup",
    "GroupEdge",
    "CoreOpGraph",
    "DerivedView",
    "Tiling",
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


class Tiling(NamedTuple):
    """Each group's plan and tile count on one crossbar shape; sum of reuse x tiles."""

    plans: dict[str, TilePlan]
    tiles: dict[str, int]
    instances: int


class DerivedView:
    """What the compile reads of one version of a :class:`CoreOpGraph`,
    derived once: the group order and pipeline depth, the tiling on a
    crossbar shape, every edge's traffic and SMB size, and the allocations
    ``allocate_request`` made of it.  None of it depends on the duplication
    degree, so every duplication of one model reads the same facts."""

    def __init__(self, graph: "CoreOpGraph"):
        # the graph's containers, not the graph: no reference cycle
        self.version, self._name = graph.mutation_count, graph.name
        self._groups, self._edges = graph._groups, graph._edges
        self.n_edges = len(graph._edges)
        self._tilings: dict[tuple[int, int], Tiling] = {}
        self._buffer_sizes: dict[int, tuple[tuple[int, str, str, int], ...]] = {}
        self.allocations: dict[tuple, object] = {}

    @cached_property
    def order(self) -> tuple[WeightGroup, ...]:
        """Groups in topological order of the group-level dataflow."""
        groups = self._groups
        in_degree = dict.fromkeys(groups, 0)
        successors: dict[str, list[str]] = {n: [] for n in groups}
        for edge in self._edges:
            if edge.src in groups and edge.dst in groups:
                in_degree[edge.dst] += 1
                successors[edge.src].append(edge.dst)
        ready = deque(n for n in groups if in_degree[n] == 0)
        order: list[WeightGroup] = []
        while ready:
            name = ready.popleft()
            order.append(groups[name])
            for succ in successors[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(groups):
            raise SynthesisError(f"core-op graph {self._name!r} contains a cycle")
        return tuple(order)

    @cached_property
    def depth(self) -> int:
        """Length (in groups) of the longest dataflow path: the pipeline depth."""
        preds: dict[str, list[str]] = {}
        for edge in self._edges:
            if edge.src in self._groups:
                preds.setdefault(edge.dst, []).append(edge.src)
        depth: dict[str, int] = {}
        for group in self.order:
            depth[group.name] = 1 + max((depth[p] for p in preds.get(group.name, ())), default=0)
        return max(depth.values(), default=1)

    def buffer_sizes(self, capacity: int) -> tuple[tuple[int, str, str, int], ...]:
        """``(index, src, dst, SMBs)`` of every group-to-group edge, in edge
        order: the SMBs of ``capacity`` values the edge needs if it is
        buffered (whether it is depends on the allocation)."""
        sizes = self._buffer_sizes.get(capacity)
        if sizes is None:
            groups = self._groups
            sizes = self._buffer_sizes[capacity] = tuple(
                (index, e.src, e.dst, -(-max(1, e.values_per_instance) // capacity))
                for index, e in enumerate(self._edges)
                if e.src in groups and e.dst in groups
            )
        return sizes

    def tiling(self, max_rows: int = 256, max_cols: int = 256) -> Tiling:
        key = (max_rows, max_cols)
        if key not in self._tilings:
            groups = self._groups
            plans = {name: g.tiling(max_rows, max_cols) for name, g in groups.items()}
            tiles = {name: plan.n_tiles for name, plan in plans.items()}
            instances = sum(g.reuse * tiles[name] for name, g in groups.items())
            self._tilings[key] = Tiling(plans, tiles, instances)
        return self._tilings[key]

    @cached_property
    def edge_traffic(self) -> tuple[int, ...]:
        """Values per inference on each edge, in edge order: the consumer's
        reuse x ``values_per_instance`` (into the graph output, the latter)."""
        groups = self._groups
        return tuple(
            e.values_per_instance * groups[e.dst].reuse if e.dst in groups
            else e.values_per_instance if e.src in groups
            else 0
            for e in self._edges
        )

    @cached_property
    def traffic(self) -> float:
        """Values moved between function blocks per inference."""
        return float(sum(self.edge_traffic))


class CoreOpGraph:
    """The grouped core-op graph produced by the neural synthesizer.

    What the compile derives from it is :meth:`derived`: one :class:`DerivedView`
    per version (``mutation_count``, as the fingerprint), never pickled."""

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
        return list(self.derived().order)

    def derived(self) -> DerivedView:
        view = getattr(self, "_derived", None)
        if view is None or view.version != self.mutation_count:
            view = self._derived = DerivedView(self)
        return view

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_derived", None)
        return state

    # ------------------------------------------------------------ statistics
    @property
    def max_reuse_degree(self) -> int:
        return max((g.reuse for g in self.groups()), default=1)

    def total_weights(self) -> int:
        return sum(g.weights for g in self.groups())

    def total_macs(self) -> int:
        return sum(g.total_macs for g in self.groups())

    def total_instances(self, max_rows: int = 256, max_cols: int = 256) -> int:
        return self.derived().tiling(max_rows, max_cols).instances

    def min_pes(self, max_rows: int = 256, max_cols: int = 256) -> int:
        """PEs needed to hold every group's weights exactly once."""
        return sum(self.derived().tiling(max_rows, max_cols).tiles.values())

    def spatial_utilization(self, max_rows: int = 256, max_cols: int = 256) -> float:
        """Useful-MAC fraction of the crossbar capacity activated per VMM.

        Weighted by instance count so that heavily reused (and therefore
        heavily executed) groups dominate, which is what determines the
        spatial utilization bound of Figure 8c.
        """
        plans = self.derived().tiling(max_rows, max_cols).plans
        capacity = sum(plans[g.name].crossbar_capacity_used * g.reuse for g in self.groups())
        useful = sum(g.macs_per_instance * g.reuse for g in self.groups())
        return min(1.0, useful / capacity) if capacity else 0.0

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
