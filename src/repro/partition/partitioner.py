"""Weight-group-aware min-cut partitioning of a core-op graph.

The weight group is the atomic unit: splitting one shared weight matrix
across chips would force every reuse iteration to cross the chip boundary,
so groups are assigned whole.  Each group is weighted by the *exact* PE
count the whole-model allocation gives it (tiles x duplication x
replication), which makes the per-chip capacity constraint precise: the
backend later allocates every shard against the same whole-model pipeline
pace, so shard PE counts equal the plan's estimates.

The algorithm is deterministic (no RNG):

1. order the groups topologically (pipeline order);
2. split the order into ``k`` contiguous, weight-balanced segments
   (greedy capacity packing in auto mode, which also picks ``k``);
3. refine the segment boundaries: shift a boundary by one group when that
   reduces the cut traffic (per-sample values crossing chips) without
   overloading or emptying a chip.

Contiguous-in-topological-order shards keep the inter-chip dataflow
feed-forward (chip ``i`` only feeds chips ``>= i``), matching how a
pipelined multi-chip deployment is actually cabled.
"""

from __future__ import annotations

from ..arch.params import PEParams
from ..core.pipeline import AUTO_CHIPS
from ..errors import CapacityError, InvalidRequestError
from ..mapper.allocation import allocate_request
from ..synthesizer.coreop import GRAPH_INPUT, GRAPH_OUTPUT, CoreOpGraph
from .plan import CutEdge, PartitionResult, Shard

__all__ = ["AUTO_CHIPS", "partition_coreops"]

#: load slack over the ideal per-chip share tolerated by balanced splits
#: when no hard capacity is enforced.
_BALANCE_SLACK = 1.2

#: boundary-refinement sweeps (each sweep visits every boundary once).
_REFINE_ROUNDS = 8


def _edge_traffic(coreops: CoreOpGraph) -> dict[tuple[str, str], float]:
    """Per-sample value traffic of every group-to-group edge (summed over
    parallel edges between the same pair)."""
    traffic: dict[tuple[str, str], float] = {}
    for edge, values in zip(coreops.edges(), coreops.derived().edge_traffic, strict=True):
        if edge.src in coreops and edge.dst in coreops:
            key = (edge.src, edge.dst)
            traffic[key] = traffic.get(key, 0.0) + values
    return traffic


def _pack_by_capacity(order: list[str], weights: dict[str, int], capacity: int) -> list[int]:
    """Greedy contiguous packing; returns the chip index of every group."""
    chips: list[int] = []
    chip = 0
    load = 0
    for name in order:
        w = weights[name]
        if load > 0 and load + w > capacity:
            chip += 1
            load = 0
        chips.append(chip)
        load += w
    return chips


def _balanced_split(order: list[str], weights: dict[str, int], k: int) -> list[int]:
    """Split the order into ``k`` contiguous, weight-balanced segments."""
    n = len(order)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[order[i]]
    chips: list[int] = []
    chip = 0
    load = 0.0
    for i, name in enumerate(order):
        w = weights[name]
        chips_left = k - chip
        groups_left = n - i
        close = False
        if load > 0 and chips_left > 1:
            if groups_left <= chips_left - 1:
                # reserve at least one group for every remaining chip
                close = True
            else:
                # ideal share of this chip given what it already holds
                target = (load + suffix[i]) / chips_left
                if load >= target or (
                    load + w > target and (load + w - target) > (target - load)
                ):
                    close = True
        if close:
            chip += 1
            load = 0.0
        chips.append(chip)
        load += w
    return chips


def _refine_boundaries(
    order: list[str],
    chips: list[int],
    weights: dict[str, int],
    traffic: dict[tuple[str, str], float],
    limit: float,
) -> list[int]:
    """Shift segment boundaries to reduce cut traffic under the load limit.

    A boundary between chips ``c-1`` and ``c`` may move one group at a time
    in either direction; a move is accepted when it strictly reduces the
    per-sample cut traffic, keeps both chips non-empty and keeps the
    growing chip at or below ``limit``.  Deterministic: boundaries are
    visited in order, ties keep the current assignment.
    """
    n = len(order)
    k = chips[-1] + 1 if chips else 1
    if k <= 1:
        return chips
    chips = list(chips)
    index_of = {name: i for i, name in enumerate(order)}
    loads = [0.0] * k
    for name, i in index_of.items():
        loads[chips[i]] += weights[name]

    # adjacency with per-sample traffic, for O(degree) move deltas
    neighbours: dict[str, list[tuple[str, float]]] = {name: [] for name in order}
    for (s, d), t in traffic.items():
        neighbours[s].append((d, t))
        neighbours[d].append((s, t))

    def move_delta(group: str, to_chip: int) -> float:
        frm = chips[index_of[group]]
        delta = 0.0
        for other, t in neighbours[group]:
            other_chip = chips[index_of[other]]
            if other == group:
                continue
            delta -= t if other_chip != frm else 0.0
            delta += t if other_chip != to_chip else 0.0
        return delta

    for _ in range(_REFINE_ROUNDS):
        improved = False
        # boundary positions: first index of every chip > 0
        for boundary_chip in range(1, k):
            start = next((i for i in range(n) if chips[i] == boundary_chip), None)
            if start is None:
                continue
            # pull the first group of `boundary_chip` back into the
            # previous chip, or push the last group of the previous chip
            # forward — whichever reduces the cut more.
            candidates = []
            first = order[start]
            prev_chip = boundary_chip - 1
            if (
                loads[boundary_chip] - weights[first] > 0
                and loads[prev_chip] + weights[first] <= limit
            ):
                candidates.append((move_delta(first, prev_chip), first, prev_chip))
            if start > 0 and chips[start - 1] == prev_chip:
                last = order[start - 1]
                if (
                    loads[prev_chip] - weights[last] > 0
                    and loads[boundary_chip] + weights[last] <= limit
                ):
                    candidates.append((move_delta(last, boundary_chip), last, boundary_chip))
            if not candidates:
                continue
            delta, group, to_chip = min(candidates, key=lambda c: (c[0], c[1]))
            if delta < 0:
                frm = chips[index_of[group]]
                chips[index_of[group]] = to_chip
                loads[frm] -= weights[group]
                loads[to_chip] += weights[group]
                improved = True
        if not improved:
            break
    return chips


def _build_shard(
    coreops: CoreOpGraph, chip: int, num_chips: int, members: set[str]
) -> CoreOpGraph:
    shard = CoreOpGraph(f"{coreops.name}@chip{chip}of{num_chips}")
    for group in coreops.groups():
        if group.name in members:
            shard.add_group(group)
    for edge in coreops.edges():
        src_in = edge.src in members
        dst_in = edge.dst in members
        if src_in and dst_in:
            shard.add_edge(edge.src, edge.dst, edge.values_per_instance)
        elif src_in:
            # consumer lives on another chip (or is the graph output)
            shard.add_edge(edge.src, GRAPH_OUTPUT, edge.values_per_instance)
        elif dst_in:
            # producer lives on another chip (or is the graph input)
            shard.add_edge(GRAPH_INPUT, edge.dst, edge.values_per_instance)
    return shard


def partition_coreops(
    coreops: CoreOpGraph,
    num_chips: int | str = 1,
    duplication_degree: int = 1,
    pe: PEParams | None = None,
    pe_budget: int | None = None,
    capacity_pes: int | None = None,
) -> PartitionResult:
    """Partition a core-op graph across chips.

    Parameters
    ----------
    num_chips:
        Explicit chip count, or :data:`AUTO_CHIPS` to pick the smallest
        count whose chips stay within ``capacity_pes``.
    duplication_degree / pe_budget:
        The whole-model allocation request; the resulting per-group PE
        counts are the partition weights, and the allocation's pipeline
        pace (target iterations, replication) is recorded on the plan so
        the backend maps every shard against it.
    capacity_pes:
        Per-chip PE capacity.  Required in auto mode; when given with an
        explicit chip count it is enforced (``CapacityError`` when the
        model cannot fit, with required-vs-available counts).
    """
    pe = pe if pe is not None else PEParams()
    allocation = allocate_request(coreops, duplication_degree, pe, pe_budget)
    replication = allocation.replication
    weights = {
        name: alloc.pes * replication for name, alloc in allocation.allocations.items()
    }
    total_pes = allocation.total_pes
    order = [g.name for g in coreops.derived().order]
    traffic = _edge_traffic(coreops)

    if capacity_pes is not None:
        if capacity_pes <= 0:
            raise InvalidRequestError(
                f"capacity_pes must be positive, got {capacity_pes}",
                details={"capacity_pes": capacity_pes},
            )
        heaviest = max(order, key=lambda n: weights[n])
        if weights[heaviest] > capacity_pes:
            raise CapacityError(
                f"weight group {heaviest!r} of {coreops.name!r} alone needs "
                f"{weights[heaviest]} PEs but one chip provides {capacity_pes}; "
                f"groups are indivisible, so no chip count can fit this model "
                f"at duplication degree {allocation.duplication_degree}",
                details={
                    "model": coreops.name,
                    "group": heaviest,
                    "required_pes": weights[heaviest],
                    "available_pes": capacity_pes,
                },
            )

    if num_chips == AUTO_CHIPS:
        if capacity_pes is None:
            raise InvalidRequestError(
                "auto chip count requires a per-chip capacity (capacity_pes)"
            )
        chips = _pack_by_capacity(order, weights, capacity_pes)
        k = chips[-1] + 1
        limit: float = capacity_pes
    else:
        if not isinstance(num_chips, int) or num_chips < 1:
            raise InvalidRequestError(
                f"num_chips must be an integer >= 1 or {AUTO_CHIPS!r}, "
                f"got {num_chips!r}",
                details={"num_chips": repr(num_chips)},
            )
        k = num_chips
        if k > len(order):
            raise InvalidRequestError(
                f"cannot partition {coreops.name!r} ({len(order)} weight "
                f"groups) across {k} chips; groups are indivisible",
                details={"model": coreops.name, "groups": len(order), "num_chips": k},
            )
        if capacity_pes is not None and total_pes > k * capacity_pes:
            min_chips = _pack_by_capacity(order, weights, capacity_pes)[-1] + 1
            raise CapacityError(
                f"model {coreops.name!r} needs {total_pes} PEs at duplication "
                f"degree {allocation.duplication_degree} but {k} chip(s) "
                f"provide {k * capacity_pes}; use num_chips={min_chips} or "
                f"num_chips='auto'",
                details={
                    "model": coreops.name,
                    "required_pes": total_pes,
                    "available_pes": k * capacity_pes,
                    "num_chips": k,
                    "capacity_pes_per_chip": capacity_pes,
                    "min_chips": min_chips,
                },
            )
        chips = _balanced_split(order, weights, k)
        if capacity_pes is not None:
            limit = capacity_pes
            # a balanced split can overshoot the capacity on group
            # granularity; fall back to greedy packing, which cannot
            loads: dict[int, float] = {}
            for name, chip in zip(order, chips, strict=True):
                loads[chip] = loads.get(chip, 0.0) + weights[name]
            if any(load > capacity_pes for load in loads.values()):
                packed = _pack_by_capacity(order, weights, capacity_pes)
                if packed[-1] + 1 <= k:
                    chips = packed
        else:
            limit = max(
                _BALANCE_SLACK * total_pes / k, max(weights.values(), default=1.0)
            )

    chips = _refine_boundaries(order, chips, weights, traffic, limit)
    k = max(chips) + 1 if chips else 1
    chip_of = dict(zip(order, chips, strict=True))

    if capacity_pes is not None:
        # the enforcement contract holds for explicit chip counts too: a
        # balanced split can overshoot on group granularity even when the
        # aggregate fits (e.g. weights [2000, 90, 2000] on 2x2048), and the
        # greedy fallback may need more chips than requested
        loads = [0] * k
        for name, chip in chip_of.items():
            loads[chip] += weights[name]
        overloaded = [c for c, load in enumerate(loads) if load > capacity_pes]
        if overloaded:
            min_chips = _pack_by_capacity(order, weights, capacity_pes)[-1] + 1
            raise CapacityError(
                f"no contiguous {k}-chip split of {coreops.name!r} keeps every "
                f"chip within {capacity_pes} PEs (chip {overloaded[0]} needs "
                f"{loads[overloaded[0]]}); use num_chips={max(min_chips, k + 1)} "
                f"or num_chips='auto'",
                details={
                    "model": coreops.name,
                    "num_chips": k,
                    "capacity_pes_per_chip": capacity_pes,
                    "required_pes": loads[overloaded[0]],
                    "available_pes": capacity_pes,
                    "min_chips": max(min_chips, k + 1),
                },
            )

    if k == 1:
        shards = [Shard(index=0, coreops=coreops, groups=tuple(order), pes=total_pes)]
        cut_edges: list[CutEdge] = []
    else:
        edge_traffic = coreops.derived().edge_traffic
        shards = []
        for chip in range(k):
            members = {name for name in order if chip_of[name] == chip}
            shard_graph = _build_shard(coreops, chip, k, members)
            shards.append(
                Shard(
                    index=chip,
                    coreops=shard_graph,
                    groups=tuple(n for n in order if n in members),
                    pes=sum(weights[n] for n in members),
                )
            )
        cut_edges = [
            CutEdge(
                src=edge.src,
                dst=edge.dst,
                src_chip=chip_of[edge.src],
                dst_chip=chip_of[edge.dst],
                values_per_instance=edge.values_per_instance,
                traffic_values_per_sample=values,
            )
            for edge, values in zip(coreops.edges(), edge_traffic, strict=True)
            if edge.src in coreops
            and edge.dst in coreops
            and chip_of[edge.src] != chip_of[edge.dst]
        ]

    return PartitionResult(
        model=coreops.name,
        num_chips=k,
        shards=shards,
        cut_edges=cut_edges,
        duplication_degree=allocation.duplication_degree,
        # the pace allocate balanced against: the maximum-reuse group runs
        # at exactly that pace and no group slower
        target_iterations=allocation.max_iterations,
        replication=replication,
        capacity_pes_per_chip=capacity_pes,
        total_pes=total_pes,
        assignment=chip_of,
    )
