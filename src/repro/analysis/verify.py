"""Inter-stage IR verifiers: structural invariant checks per artifact.

Every pipeline artifact has a verifier that re-establishes its structural
invariants from scratch — independently of the constructors that normally
enforce them, because the artifacts the pipeline consumes do not always
come from constructors: the artifact store (and any pickle) rehydrates
state, which restores attributes without ever running ``__post_init__``
validation.  A corrupt or stale entry therefore
surfaces here as a pinpointed :class:`~repro.errors.VerificationError`
(naming the stage, the invariant and the offending ids) instead of as an
arbitrary crash three passes downstream.

The checks are interposed in :meth:`repro.core.pipeline.PassManager.run`
when verification is on (``CompileOptions.verify``, the ``--verify`` CLI
flag, or ``REPRO_VERIFY=1``), after both freshly-run passes and cache-hit
installs, and each verifier's wall-clock lands in the pass timings as a
``verify:<artifact>`` row so ``--explain`` shows the overhead.

Verifiers are standalone functions over the artifact objects: they take an
optional *context* granting cross-artifact checks (e.g. routing terminals
against the netlist) but degrade gracefully to the intra-artifact subset
when called at a cache boundary where only the artifact itself exists.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..errors import VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layer imports
    from ..graph.graph import ComputationalGraph
    from ..mapper.mapper import MappingResult
    from ..mapper.netlist import FunctionBlockNetlist
    from ..partition.plan import PartitionResult
    from ..pnr.placement import Placement
    from ..pnr.pnr import PnRResult
    from ..pnr.routing import RoutingResult
    from ..synthesizer.coreop import CoreOpGraph

__all__ = [
    "VERIFY_ENV",
    "ARTIFACT_VERIFIERS",
    "verification_enabled",
    "verify_graph",
    "verify_coreops",
    "verify_netlist",
    "verify_mapping",
    "verify_placement",
    "verify_routing",
    "verify_pnr",
    "verify_partition",
    "verify_artifact",
    "verify_artifacts",
]

#: environment variable turning verification on for every compile/load.
VERIFY_ENV = "REPRO_VERIFY"

_TRUTHY = ("1", "true", "yes", "on")


def verification_enabled(explicit: bool | None = None) -> bool:
    """Whether verification is on: an explicit setting wins, the
    ``REPRO_VERIFY`` environment variable is the fallback."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(VERIFY_ENV, "").strip().lower() in _TRUTHY


def _fail(stage: str, invariant: str, message: str, ids: Iterable[Any] = ()) -> None:
    ids = tuple(ids)
    suffix = f" [{', '.join(str(i) for i in ids)}]" if ids else ""
    raise VerificationError(
        f"{stage}: {invariant}: {message}{suffix}",
        stage=stage,
        invariant=invariant,
        ids=ids,
    )


# --------------------------------------------------------------------------
# computational graph
# --------------------------------------------------------------------------

def verify_graph(graph: "ComputationalGraph", stage: str = "graph") -> None:
    """``ComputationalGraph``: dangling-tensor refs and acyclicity."""
    # the registry keys are the authoritative names: a rehydrated graph may
    # carry a node registered under a key that is not the node's own name
    registry = getattr(graph, "_nodes", None)
    if isinstance(registry, Mapping):
        for key, node in registry.items():
            if node.name != key:
                _fail(stage, "name-mismatch",
                      "node registered under a different name", [key, node.name])
    nodes = {node.name: node for node in graph.nodes()}
    dangling = sorted(
        f"{name}<-{ref}"
        for name, node in nodes.items()
        for ref in node.inputs
        if ref not in nodes
    )
    if dangling:
        _fail(stage, "dangling-input", "node inputs reference missing nodes", dangling)
    # Kahn's algorithm: any node never reaching in-degree zero sits on a cycle
    in_degree = {name: len(node.inputs) for name, node in nodes.items()}
    ready = [name for name, degree in in_degree.items() if degree == 0]
    visited = 0
    consumers: dict[str, list[str]] = {name: [] for name in nodes}
    for name, node in nodes.items():
        for ref in node.inputs:
            consumers[ref].append(name)
    while ready:
        name = ready.pop()
        visited += 1
        for consumer in consumers[name]:
            in_degree[consumer] -= 1
            if in_degree[consumer] == 0:
                ready.append(consumer)
    if visited != len(nodes):
        cyclic = sorted(name for name, degree in in_degree.items() if degree > 0)
        _fail(stage, "cycle", "computational graph contains a cycle", cyclic)


# --------------------------------------------------------------------------
# core-op graph
# --------------------------------------------------------------------------

def verify_coreops(coreops: "CoreOpGraph", stage: str = "synthesis") -> None:
    """``CoreOpGraph``: edge endpoints exist, weight-group consistency,
    acyclicity of the group-level dataflow."""
    from ..synthesizer.coreop import GRAPH_INPUT, GRAPH_OUTPUT

    groups = {g.name: g for g in coreops.groups()}
    for key, group in coreops._groups.items():  # noqa: SLF001 - verifier
        if key != group.name:
            _fail(stage, "name-mismatch", "group registered under a different name",
                  [key, group.name])
    bad = sorted(
        name
        for name, g in groups.items()
        if g.rows <= 0
        or g.cols <= 0
        or g.reuse <= 0
        or not 0.0 < g.density <= 1.0
        or g.macs_per_instance < 0
    )
    if bad:
        _fail(stage, "weight-group-consistency",
              "rows/cols/reuse must be positive, density in (0, 1], macs >= 0", bad)
    pseudo = (GRAPH_INPUT, GRAPH_OUTPUT)
    unknown = sorted(
        f"{e.src}->{e.dst}"
        for e in coreops.edges()
        if (e.src not in groups and e.src not in pseudo)
        or (e.dst not in groups and e.dst not in pseudo)
    )
    if unknown:
        _fail(stage, "edge-endpoints", "edges reference unknown groups", unknown)
    negative = sorted(
        f"{e.src}->{e.dst}" for e in coreops.edges() if e.values_per_instance < 0
    )
    if negative:
        _fail(stage, "edge-values", "values_per_instance must be non-negative", negative)
    # group-level acyclicity (pseudo input/output endpoints excluded)
    in_degree = {name: 0 for name in groups}
    successors: dict[str, list[str]] = {name: [] for name in groups}
    for e in coreops.edges():
        if e.src in groups and e.dst in groups:
            in_degree[e.dst] += 1
            successors[e.src].append(e.dst)
    ready = [name for name, degree in in_degree.items() if degree == 0]
    visited = 0
    while ready:
        name = ready.pop()
        visited += 1
        for succ in successors[name]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
    if visited != len(groups):
        cyclic = sorted(name for name, degree in in_degree.items() if degree > 0)
        _fail(stage, "cycle", "core-op graph contains a cycle", cyclic)


# --------------------------------------------------------------------------
# netlist / mapping
# --------------------------------------------------------------------------

def verify_netlist(netlist: "FunctionBlockNetlist", stage: str = "mapping") -> None:
    """``FunctionBlockNetlist``: every net's terminals are real blocks."""
    from ..mapper.netlist import BlockType

    for key, block in netlist.blocks.items():
        if key != block.name:
            _fail(stage, "name-mismatch", "block registered under a different name",
                  [key, block.name])
        if block.type not in BlockType.ALL:
            _fail(stage, "block-type", f"unknown block type {block.type!r}", [key])
    seen: set[str] = set()
    for net in netlist.nets:
        if net.name in seen:
            _fail(stage, "duplicate-net", "net name appears more than once", [net.name])
        seen.add(net.name)
        if not net.sinks:
            _fail(stage, "net-sinks", "net has no sinks", [net.name])
        if net.bits <= 0:
            _fail(stage, "net-bits", "net must carry at least one bit", [net.name])
        unknown = sorted(
            terminal
            for terminal in (net.driver, *net.sinks)
            if terminal not in netlist.blocks
        )
        if unknown:
            _fail(stage, "net-terminals",
                  f"net {net.name!r} references blocks missing from the netlist",
                  unknown)


def verify_mapping(mapping: "MappingResult", stage: str = "mapping") -> None:
    """``MappingResult``: netlist invariants plus allocation consistency."""
    verify_coreops(mapping.coreops, stage=stage)
    verify_netlist(mapping.netlist, stage=stage)
    allocation = mapping.allocation
    bad = sorted(
        name
        for name, alloc in allocation.allocations.items()
        if alloc.tiles <= 0
        or alloc.duplication <= 0
        or alloc.reuse <= 0
        or alloc.duplication > alloc.reuse
    )
    if bad:
        _fail(stage, "allocation-consistency",
              "tiles/duplication/reuse must be positive with duplication <= reuse",
              bad)
    if allocation.replication <= 0:
        _fail(stage, "allocation-replication", "replication must be positive",
              [allocation.replication])
    built = mapping.netlist.block_counts()
    if built["n_pe"] != allocation.total_pes:
        _fail(stage, "pe-count",
              f"netlist instantiates {built['n_pe']} PEs but the allocation "
              f"assigns {allocation.total_pes}",
              [mapping.model])
    closed_form = mapping.block_counts()
    if built != closed_form:
        _fail(stage, "block-counts",
              f"netlist instantiates {built} but the mapping counts {closed_form}",
              [mapping.model])
    pes = mapping.netlist.blocks_of_type("PE")
    unallocated = sorted({block.group for block in pes} - allocation.allocations.keys())
    if unallocated:
        _fail(stage, "pe-groups", "PE blocks belong to unallocated groups", unallocated)
    pe = mapping.config.pe
    tiles = mapping.coreops.derived().tiling(pe.rows, pe.logical_cols).tiles
    strays = sorted(block.name for block in pes if not 0 <= block.tile < tiles.get(block.group, 0))
    if strays:
        _fail(stage, "pe-tiles", "PE blocks program a tile outside their group", strays)


# --------------------------------------------------------------------------
# placement / routing / P&R
# --------------------------------------------------------------------------

def _is_io_site(fabric, x: int, y: int) -> bool:
    on_x = 0 <= x < fabric.width
    on_y = 0 <= y < fabric.height
    return (x in (-1, fabric.width) and on_y) or (y in (-1, fabric.height) and on_x)


def verify_placement(
    placement: "Placement",
    netlist: "FunctionBlockNetlist | None" = None,
    stage: str = "pnr",
) -> None:
    """Placement: bijective block -> site within the fabric bounds.

    With the netlist in hand, additionally checks that exactly the
    netlist's blocks are placed and that I/O blocks sit on I/O sites (and
    only they do).
    """
    fabric = placement.fabric
    out_of_bounds = sorted(
        block
        for block, (x, y) in placement.positions.items()
        if not fabric.contains(x, y) and not _is_io_site(fabric, x, y)
    )
    if out_of_bounds:
        _fail(stage, "placement-bounds",
              f"blocks placed outside the {fabric.width}x{fabric.height} fabric",
              out_of_bounds)
    by_site: dict[tuple[int, int], list[str]] = {}
    for block, pos in placement.positions.items():
        by_site.setdefault(pos, []).append(block)
    overlaps = sorted(
        f"{x},{y}:{'+'.join(sorted(blocks))}"
        for (x, y), blocks in by_site.items()
        if len(blocks) > 1
    )
    if overlaps:
        _fail(stage, "placement-overlap", "two blocks share one site", overlaps)
    if netlist is not None:
        unplaced = sorted(set(netlist.blocks) - set(placement.positions))
        if unplaced:
            _fail(stage, "placement-complete", "netlist blocks were never placed",
                  unplaced)
        phantom = sorted(set(placement.positions) - set(netlist.blocks))
        if phantom:
            _fail(stage, "placement-phantom",
                  "placed blocks do not exist in the netlist", phantom)
        misplaced = sorted(
            block.name
            for block in netlist.blocks.values()
            if (block.type == "IO")
            != _is_io_site(fabric, *placement.positions[block.name])
        )
        if misplaced:
            _fail(stage, "placement-io-sites",
                  "I/O blocks belong on peripheral I/O sites (and only they do)",
                  misplaced)


def _rr(node: Any) -> str:
    return f"{node.kind}({node.x},{node.y})#{node.track}"


def _around(pin: Any, wire: Any) -> bool:
    """Whether ``wire`` runs in one of the four channels around ``pin``'s
    block: ``H(x, y)`` above, ``H(x, y - 1)`` below, ``V(x, y)`` right,
    ``V(x - 1, y)`` left."""
    offset = (wire.x - pin.x, wire.y - pin.y)
    return offset in (((0, 0), (0, -1)) if wire.kind == "H" else ((0, 0), (-1, 0)))


def _is_fabric_switch(a: Any, b: Any) -> bool:
    """Whether the fabric has a programmable switch from RR node ``a`` to
    RR node ``b``, judged on their coordinates alone — independently of the
    router's id arithmetic, which this is the check on.  Switch boxes are
    disjoint: a wire meets only its own track, crossing to the other kind
    in place or continuing its kind into a neighbouring cell.  Connection
    boxes join a block's output pin to, and its input pin from, every
    track of the channels around it."""
    if a.is_wire and b.is_wire:
        apart = abs(a.x - b.x) + abs(a.y - b.y)
        return a.track == b.track and apart == (1 if a.kind == b.kind else 0)
    if a.kind == "OPIN" and b.is_wire:
        return _around(a, b)
    if a.is_wire and b.kind == "IPIN":
        return _around(b, a)
    return False


def verify_routing(
    routing: "RoutingResult",
    netlist: "FunctionBlockNetlist | None" = None,
    placement: "Placement | None" = None,
    stage: str = "pnr",
) -> None:
    """Routing: every net routed, RR-node capacity respected, every path
    follows switches of the fabric from the net's tree so far, routes
    connect their terminals (terminal checks need netlist + placement).
    Node ids are decoded with the routing's geometry; every step is judged
    on the decoded coordinates."""
    node = routing.geometry.node if routing.nets else None
    decoded: dict[str, dict[int, Any]] = {}
    for name, net in routing.nets.items():
        if net.name != name:
            _fail(stage, "name-mismatch", "net routed under a different name",
                  [name, net.name])
        tree = set(net.nodes)
        if list(net.nodes) != sorted(tree):
            _fail(stage, "route-tree", f"net {name!r}: tree ids not distinct, ascending", [name])
        ids = tree.union(*net.sink_paths.values())
        if not all(0 <= u < routing.geometry.n_nodes for u in ids):
            _fail(stage, "route-tree", f"net {name!r} has ids outside the fabric", [name])
        decoded[name] = at = {u: node(u) for u in ids}
        stray = [_rr(at[u]) for path in net.sink_paths.values() for u in path if u not in tree]
        if stray:
            _fail(stage, "route-tree",
                  f"net {name!r} has sink-path nodes outside its routed tree",
                  sorted(set(stray)))
    # capacity: every wire RR node hosts at most one net's tree
    usage: dict[Any, int] = {}
    for name, net in routing.nets.items():
        for u in net.nodes:
            if decoded[name][u].is_wire:
                usage[u] = usage.get(u, 0) + 1
    overused = sorted(_rr(node(u)) for u, count in usage.items() if count > 1)
    if overused:
        _fail(stage, "rr-capacity", "wire nodes shared by multiple nets", overused)
    for name, net in routing.nets.items():
        at = decoded[name]
        # paths are recorded in routing order: each branches off the tree
        # the earlier ones built, the first off the driver's output pin
        reached: set[int] = set()
        for pos, path in net.sink_paths.items():
            if path and at[path[0]].kind != "OPIN" and path[0] not in reached:
                _fail(stage, "route-edges",
                      f"net {name!r}: path to {pos} starts at {_rr(at[path[0]])}, neither "
                      f"an output pin nor a node of an earlier path", [name])
            for a, b in zip(path, path[1:]):
                if not _is_fabric_switch(at[a], at[b]):
                    _fail(stage, "route-edges",
                          f"net {name!r}: path to {pos} steps {_rr(at[a])} -> {_rr(at[b])}, "
                          f"which no switch of the fabric connects", [name])
            reached.update(path)
    if netlist is None or placement is None:
        return
    expected = {net.name for net in netlist.nets if net.sinks}
    unrouted = sorted(expected - set(routing.nets))
    if unrouted:
        _fail(stage, "nets-routed", "netlist nets were never routed", unrouted)
    phantom = sorted(set(routing.nets) - expected)
    if phantom:
        _fail(stage, "nets-phantom", "routed nets do not exist in the netlist", phantom)
    nets_by_name = {net.name: net for net in netlist.nets}
    for name, routed in routing.nets.items():
        at = decoded[name]
        net = nets_by_name[name]
        driver_pos = placement.position(net.driver)
        sink_positions = {placement.position(sink) for sink in net.sinks}
        missing = sorted(str(pos) for pos in sink_positions - set(routed.sink_paths))
        if missing:
            _fail(stage, "route-connects-sinks",
                  f"net {name!r} has sinks with no routed path", missing)
        for pos, path in routed.sink_paths.items():
            if not path:
                _fail(stage, "route-connects-sinks",
                      f"net {name!r} has an empty path to sink {pos}", [pos])
            first, last = at[path[0]], at[path[-1]]
            if first.kind == "OPIN" and (first.x, first.y) != driver_pos:
                _fail(stage, "route-edges",
                      f"net {name!r}: path to {pos} starts at the output pin of "
                      f"({first.x}, {first.y}), not the driver's at {driver_pos}",
                      [name])
            if last.kind != "IPIN" or (last.x, last.y) != pos:
                _fail(stage, "route-connects-sinks",
                      f"net {name!r}: path to {pos} ends at "
                      f"{last.kind}({last.x},{last.y}), not the sink IPIN",
                      [name])
        opin = [
            u
            for u in routed.nodes
            if at[u].kind == "OPIN" and (at[u].x, at[u].y) == driver_pos
        ]
        if not opin:
            _fail(stage, "route-connects-driver",
                  f"net {name!r}: routed tree never touches the driver pin at "
                  f"{driver_pos}",
                  [name])


def verify_pnr(
    pnr: "PnRResult",
    netlist: "FunctionBlockNetlist | None" = None,
    stage: str = "pnr",
) -> None:
    """``PnRResult``: placement and routing invariants together."""
    verify_placement(pnr.placement, netlist, stage=stage)
    verify_routing(pnr.routing, netlist, pnr.placement, stage=stage)


# --------------------------------------------------------------------------
# partition
# --------------------------------------------------------------------------

def verify_partition(
    plan: "PartitionResult",
    coreops: "CoreOpGraph | None" = None,
    stage: str = "partition",
) -> None:
    """``PartitionResult``: exactly-once assignment, capacity, cut-set
    closure (full closure against the pre-partition graph when given)."""
    if plan.num_chips != len(plan.shards):
        _fail(stage, "shard-count",
              f"plan declares {plan.num_chips} chip(s) but carries "
              f"{len(plan.shards)} shard(s)",
              [plan.model])
    misindexed = sorted(
        str(shard.index)
        for position, shard in enumerate(plan.shards)
        if shard.index != position
    )
    if misindexed:
        _fail(stage, "shard-index", "shard indices must be 0..n-1 in order",
              misindexed)
    seen: dict[str, int] = {}
    for shard in plan.shards:
        for group in shard.groups:
            if group in seen:
                _fail(stage, "exactly-once",
                      f"group assigned to both chip {seen[group]} and chip "
                      f"{shard.index}",
                      [group])
            seen[group] = shard.index
    disagree = sorted(
        group
        for group, chip in plan.assignment.items()
        if seen.get(group) != chip
    )
    if disagree or set(seen) != set(plan.assignment):
        _fail(stage, "exactly-once",
              "assignment disagrees with the shard rosters",
              disagree or sorted(set(seen) ^ set(plan.assignment)))
    if plan.capacity_pes_per_chip is not None:
        over = sorted(
            f"chip{shard.index}:{shard.pes}"
            for shard in plan.shards
            if shard.pes > plan.capacity_pes_per_chip
        )
        if over:
            _fail(stage, "capacity",
                  f"shards exceed the {plan.capacity_pes_per_chip}-PE per-chip "
                  f"capacity",
                  over)
    total = sum(shard.pes for shard in plan.shards)
    if total != plan.total_pes:
        _fail(stage, "pe-total",
              f"shard PEs sum to {total}, plan declares {plan.total_pes}",
              [plan.model])
    for edge in plan.cut_edges:
        if edge.src_chip == edge.dst_chip:
            _fail(stage, "cut-crosses-chips",
                  f"cut edge does not cross chips (both on chip {edge.src_chip})",
                  [f"{edge.src}->{edge.dst}"])
        if (
            plan.assignment.get(edge.src) != edge.src_chip
            or plan.assignment.get(edge.dst) != edge.dst_chip
        ):
            _fail(stage, "cut-set-closure",
                  "cut edge chips disagree with the assignment",
                  [f"{edge.src}->{edge.dst}"])
    if coreops is not None:
        crossing = {
            (e.src, e.dst)
            for e in coreops.edges()
            if e.src in plan.assignment
            and e.dst in plan.assignment
            and plan.assignment[e.src] != plan.assignment[e.dst]
        }
        recorded = {(e.src, e.dst) for e in plan.cut_edges}
        missing = sorted(f"{s}->{d}" for s, d in crossing - recorded)
        if missing:
            _fail(stage, "cut-set-closure",
                  "inter-chip edges missing from the cut set", missing)
        phantom = sorted(f"{s}->{d}" for s, d in recorded - crossing)
        if phantom:
            _fail(stage, "cut-set-closure",
                  "cut edges do not cross chips in the source graph", phantom)


# --------------------------------------------------------------------------
# artifact registry (pipeline / cache / store entry points)
# --------------------------------------------------------------------------

def _verify_coreops_artifact(value: Any, ctx: Any = None) -> None:
    verify_coreops(value)


def _verify_partition_artifact(value: Any, ctx: Any = None) -> None:
    coreops = getattr(ctx, "coreops", None) if ctx is not None else None
    verify_partition(value, coreops)


def _verify_mapping_artifact(value: Any, ctx: Any = None) -> None:
    verify_mapping(value)


def _verify_pnr_artifact(value: Any, ctx: Any = None) -> None:
    mapping = getattr(ctx, "mapping", None) if ctx is not None else None
    netlist = getattr(mapping, "netlist", None) if mapping is not None else None
    verify_pnr(value, netlist)


def _verify_graph_artifact(value: Any, ctx: Any = None) -> None:
    verify_graph(value)


#: artifact name -> verifier; artifacts without structural invariants
#: (performance numbers, simulation results, ...) have no entry.
ARTIFACT_VERIFIERS = {
    "graph": _verify_graph_artifact,
    "coreops": _verify_coreops_artifact,
    "partition": _verify_partition_artifact,
    "mapping": _verify_mapping_artifact,
    "pnr": _verify_pnr_artifact,
}


def verify_artifact(name: str, value: Any, ctx: Any = None) -> bool:
    """Verify one artifact by name; returns whether a verifier exists.

    ``ctx`` (a :class:`~repro.core.pipeline.CompileContext` or anything
    duck-typed like one) unlocks cross-artifact checks; ``None`` runs the
    intra-artifact subset.
    """
    verifier = ARTIFACT_VERIFIERS.get(name)
    if verifier is None or value is None:
        return False
    verifier(value, ctx)
    return True


def verify_artifacts(artifacts: Mapping[str, Any], ctx: Any = None) -> list[str]:
    """Verify every artifact in a ``{name: value}`` mapping (the shape the
    stage cache stores); returns the names actually verified."""
    verified = []
    for name in sorted(artifacts):
        if verify_artifact(name, artifacts[name], ctx):
            verified.append(name)
    return verified
