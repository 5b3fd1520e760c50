"""Negotiated-congestion routing (PathFinder) over the routing-resource graph.

Every net is routed as a tree from its driver's output pin to all of its
sinks' input pins with A* searches whose node costs grow with present and
historical congestion.  Iterating rip-up-and-reroute until no wire is
shared by two different nets yields a legal routing, exactly as VPR/mrVPR
do for FPGAs.

A routing is node ids: each net's tree is the sorted tuple of the ids it
occupies and each sink path the tuple of ids the search walked, decoded
into :class:`~repro.pnr.rrgraph.RRNode` only by a reader that prints or
judges coordinates (``RoutingResult.geometry.node``).

Three structural optimizations keep the negotiation loop fast without
changing its semantics where it matters:

* **window-confined search** — each net's A* only expands nodes inside its
  terminal bounding box grown by ``_BB_MARGIN`` blocks, so a short net
  never floods the fabric;
* **congestion domains** — nets whose search windows overlap are grouped
  (union-find, one row sweep) into one domain; domains are node-disjoint
  by construction and therefore share no congestion state, so each runs
  its own independent negotiation loop, one after the other;
* **incremental rip-up** — from the second negotiation iteration on, only
  the nets whose trees touch an overused wire are ripped up and rerouted;
  everyone else keeps their tree and their occupancy.

The search runs over the graph's :class:`~repro.pnr.rrgraph.CompiledRRGraph`
— integer node ids, neighbours computed from the id when a node is expanded
(no adjacency is stored), and flat cost/visited lists reset by version
stamps instead of reallocation.  It is admissible A*: a wire's
remaining cost comes from a lookahead table (:func:`_lookahead`) holding,
per wire kind and offset from the sink, the exact congestion-free cost
still to pay — a pure function of the geometry, the fabric being
translation-invariant with disjoint switch boxes.  Under an exact bound
every node of an optimal path ties on ``f``; ties break deepest-first, then
on the node's rank (:func:`_rank`), so the search dives at the sink instead
of sweeping the plateau of equivalent tracks, and routing is deterministic
across processes.  The tracks are identical planes, and the rank rotates
the track a net prefers by the net's index: nets that cross start on
different planes, so few meet on a wire to be negotiated apart.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain

import numpy as np

from ..errors import InvalidRequestError, PnRError
from ..mapper.netlist import FunctionBlockNetlist, Net
from .options import PnROptions
from .placement import Placement
from .rrgraph import PIN_BASE_COST, WIRE_BASE_COST, RoutingResourceGraph, _Geometry

__all__ = ["RoutedNet", "RoutingResult", "PathFinderRouter", "RoutingError"]

#: search-window margin: each net's A* is confined to its terminal
#: bounding box expanded by this many blocks, which is also the overlap
#: slack of the congestion-domain partitioner.
_BB_MARGIN = 3

#: a net, its source pin's id, its (sink position, sink pin's id) pairs
_Terminal = tuple[Net, int, list[tuple[tuple[int, int], int]]]
_Window = tuple[int, int, int, int]


def _lookahead(span: int) -> tuple[list[list[float]], list[list[float]]]:
    """Lower bound on the cost from a wire to a sink pin, by geometry.

    ``table[dx + span][dy + span]`` of the returned ``(H, V)`` pair is the
    congestion-free cost still to pay after a wire of that kind at offset
    ``(dx, dy)`` from the sink's block: the fewest further wires to one of
    the four at the sink pin — ``H(0, 0)``, ``H(0, -1)``, ``V(0, 0)``,
    ``V(-1, 0)`` — plus the pin.  Wires continue to ``x ± 1`` and ``y ± 1``
    within their kind and cross to the other kind in place, always on one
    track, so the count is exact inside the fabric; congestion only
    multiplies costs up and the borders only remove edges, so it never
    overestimates.
    """
    d = np.arange(-span, span + 1)
    near = np.minimum(abs(d), abs(d + 1))  # to the nearer of the pin's two channels
    dx, dy, near_x, near_y = abs(d)[:, None], abs(d)[None, :], near[:, None], near[None, :]
    return tuple(
        (PIN_BASE_COST + WIRE_BASE_COST * hops).tolist()
        for hops in (
            np.minimum(dx + near_y, 1 + near_x + dy),
            np.minimum(dy + near_x, 1 + dx + near_y),
        )
    )


def _rank(u: int, tracks: int, rotation: int) -> int:
    """The tie-break rank of wire ``u`` in a search rotated by
    ``rotation``: its id with its track ``t`` read as ``(t + rotation) %
    tracks``.  Each channel's ids map onto themselves, so ranks are unique;
    ties pop in descending rank, so the track a search prefers is
    ``tracks - 1 - rotation`` (modulo ``tracks``), then the tracks below it,
    wrapping round.  A pin's rank is its id."""
    t = (u >> 1) % tracks
    return u + 2 * ((t + rotation) % tracks - t)


def _key_order(channel: range, node_cost: list[float], h: float, rotation: int = 0):
    """The wires of one channel in the order a search pops them when all
    are entered at ``g = 0`` under the same ``h``: by heap key
    ``(cost + h, -cost, -rank)`` (:func:`_rank`).  That is the channel's
    distinct costs by ``(cost + h, -cost)``, each cost's wires in descending
    rank, yielded as they are asked for.  Congestion-free channels, the
    common case, cost the same on every track: descending rank, two range
    slices from the preferred track down."""
    top = (len(channel) - 1 - rotation) % len(channel)  # the preferred track
    costs = node_cost[channel.start:channel.stop:2]
    if costs.count(costs[0]) == len(costs):
        return chain(channel[top::-1], channel[:top:-1])
    return _by_cost(channel, costs, top, h)


def _by_cost(channel: range, costs: list[float], top: int, h: float):
    """A congested ``channel`` (``costs`` its wires') by ``(cost + h,
    -cost)``, each cost in descending rank: the cheapest cost, found in one
    pass, and its wires straight off the channel, which is usually all a
    search takes; the others are set aside and ordered only if they are
    asked for."""
    first = costs[0]
    cut = first + h
    for cost in costs:
        # of two costs that round to one ``cost + h``, the dearer pops first
        if cost != first and ((k := cost + h) < cut or (k == cut and cost > first)):
            first, cut = cost, k
    rest = []
    # the tracks in descending rank: the preferred one, down, wrapping round
    for i in chain(range(top, -1, -1), range(len(costs) - 1, top, -1)):
        if costs[i] == first:
            yield channel[i]
        else:
            rest.append(i)

    def key(cost: float) -> tuple[float, float]:
        return (cost + h, -cost)

    for cost in sorted({costs[i] for i in rest}, key=key):
        yield from (channel[i] for i in rest if costs[i] == cost)


class RoutingError(PnRError):
    """Raised when the router cannot find a legal routing.

    A :class:`~repro.errors.PnRError` (and, transitively, a
    ``RuntimeError``, which it was before the typed hierarchy existed).
    """


@dataclass
class RoutedNet:
    """The routed tree of one net, as node ids; ids below ``n_wires`` are
    wires."""

    name: str
    #: every node of the tree, ascending: its wires, then its pins
    nodes: tuple[int, ...] = ()
    #: each sink's path in routing order, from the tree node it branched
    #: off to the sink's input pin
    sink_paths: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    n_wires: int = 0

    @property
    def wirelength(self) -> int:
        """Number of wire segments used by the net's tree."""
        return bisect_left(self.nodes, self.n_wires)

    def sink_delay_segments(self, sink: tuple[int, int]) -> int:
        """Wire segments on the path from the driver to one sink."""
        n_wires = self.n_wires
        return sum(u < n_wires for u in self.sink_paths.get(sink, ()))


@dataclass
class RoutingResult:
    """All routed nets plus congestion/search statistics."""

    nets: dict[str, RoutedNet] = field(default_factory=dict)
    #: the fabric's id arithmetic: ``geometry.node(i)`` decodes node id ``i``
    geometry: _Geometry | None = None
    #: negotiation iterations: the maximum over all congestion domains
    iterations: int = 0
    #: independent congestion domains the netlist partitioned into
    domains: int = 0
    #: A* node expansions summed over every search
    nodes_expanded: int = 0
    #: nets ripped up and rerouted after the first iteration
    rerouted_nets: int = 0
    #: wall-clock seconds inside the search inner loop
    expand_seconds: float = 0.0

    def _wires(self) -> list[tuple[int, ...]]:
        return [net.nodes[:net.wirelength] for net in self.nets.values()]

    @property
    def legal(self) -> bool:
        """Whether no wire lies in two nets' trees, recounted."""
        wires = self._wires()
        return len(set().union(*wires)) == sum(map(len, wires))

    @property
    def total_wirelength(self) -> int:
        return sum(net.wirelength for net in self.nets.values())

    def max_channel_occupancy(self) -> int:
        """Largest number of nets using wires of the same channel position."""
        usage: Counter[int] = Counter()
        for wires in self._wires():
            # one channel position's ids share id // (2 * tracks) and bit 0
            usage.update({u // (2 * self.geometry.tracks) * 2 + (u & 1) for u in wires})
        return max(usage.values(), default=0)


class _SearchState:
    """Search scratch, reset by version stamps, and the lookahead tables.

    The ``dist``/``prev``/``seen``/``on_tree`` labels are plain lists,
    which CPython indexes faster than numpy arrays.  ``span`` is one more
    than the largest pin-to-pin coordinate offset of the fabric.
    """

    __slots__ = ("dist", "prev", "seen", "on_tree", "stamp", "span", "look_h", "look_v")

    def __init__(self, n_nodes: int, span: int):
        self.dist = [0.0] * n_nodes
        self.prev = [-1] * n_nodes
        self.seen = [0] * n_nodes
        self.on_tree = [0] * n_nodes
        self.stamp = 0
        self.span = span
        self.look_h, self.look_v = _lookahead(span)


class PathFinderRouter:
    """PathFinder negotiated-congestion router."""

    def __init__(
        self,
        graph: RoutingResourceGraph,
        max_iterations: int = 30,
        present_cost_factor: float = 0.5,
        history_cost_factor: float = 0.4,
        options: PnROptions | None = None,
    ):
        if max_iterations < 1:
            raise InvalidRequestError("max_iterations must be >= 1")
        self.graph = graph
        self.max_iterations = max_iterations
        self.present_cost_factor = present_cost_factor
        self.history_cost_factor = history_cost_factor
        self.options = options if options is not None else PnROptions()

    # ----------------------------------------------------------- preparation
    def _net_terminals(
        self, nets: list[Net], placement: Placement
    ) -> tuple[list[_Terminal], list[_Window]]:
        """Every net's driver OPIN / sink IPINs as node ids, nearest sink
        first, and its search window: the terminals' bounding box grown by
        ``_BB_MARGIN``."""
        pin_id = self.graph.compiled().geometry.pin_id
        terminals, windows = [], []
        for net in nets:
            dx, dy = placement.position(net.driver)
            positions = sorted(
                {placement.position(sink) for sink in net.sinks},
                key=lambda pos: abs(pos[0] - dx) + abs(pos[1] - dy),
            )
            sinks = [(pos, pin_id("IPIN", *pos)) for pos in positions]
            terminals.append((net, pin_id("OPIN", dx, dy), sinks))
            xs = [dx, *(x for x, _ in positions)]
            ys = [dy, *(y for _, y in positions)]
            windows.append((
                min(xs) - _BB_MARGIN, max(xs) + _BB_MARGIN,
                min(ys) - _BB_MARGIN, max(ys) + _BB_MARGIN,
            ))
        return terminals, windows

    @staticmethod
    def _domains(windows: list[_Window]) -> list[list[int]]:
        """Union-find partition of nets into window-overlap domains.

        Nets in different domains have disjoint search windows, hence
        disjoint reachable node sets, hence no shared congestion state:
        their negotiation loops are fully independent.

        One sweep in ``lo_x`` order.  Each ``y`` row keeps the window met
        so far that covers it with the largest ``hi_x``; a new window
        overlaps an earlier one covering a row of its own iff that one's
        ``hi_x`` reaches its ``lo_x``.  All such windows contain the point
        ``(lo_x, y)``, so they are one component already, and uniting with
        the kept one is uniting with them all.  A root is its domain's
        smallest index, so the partition does not depend on the order
        pairs are met in.
        """
        n = len(windows)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        low = min((w[2] for w in windows), default=0)
        rows = max((w[3] for w in windows), default=low) - low + 1
        kept = [-1] * rows
        reach = [min((w[0] for w in windows), default=0) - 1] * rows  # kept's hi_x
        for j in sorted(range(n), key=lambda i: windows[i][0]):
            lo_x, hi_x, lo_y, hi_y = windows[j]
            joined = -1
            for r in range(lo_y - low, hi_y - low + 1):
                if reach[r] >= lo_x and kept[r] != joined:
                    joined = kept[r]
                    ri, rj = find(joined), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
                if hi_x > reach[r]:
                    kept[r], reach[r] = j, hi_x

        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return [groups[root] for root in sorted(groups)]

    # ---------------------------------------------------------------- driver
    def route(self, netlist: FunctionBlockNetlist, placement: Placement) -> RoutingResult:
        """Route every net of the netlist; raises on illegal final routing."""
        compiled = self.graph.compiled()
        n_nodes = len(compiled)

        nets = [net for net in netlist.nets if net.sinks]
        terminals, windows = self._net_terminals(nets, placement)
        result = RoutingResult(geometry=compiled.geometry)
        if not terminals:
            return result

        domains = self._domains(windows)
        result.domains = len(domains)

        # congestion state, shared across domains: every domain touches
        # only its own (disjoint) node set, so the outcome is independent
        # of the domain order
        occupancy = [0] * n_nodes
        history = [0.0] * n_nodes
        node_cost = list(compiled.base_cost)

        # per-net routed state, filled in by the domain loops
        trees: list[list[int] | None] = [None] * len(terminals)
        paths: list[dict[tuple[int, int], tuple[int, ...]] | None] = [None] * len(terminals)
        wires: list[list[int]] = [[] for _ in terminals]

        fabric = self.graph.fabric
        state = _SearchState(n_nodes, max(fabric.width, fabric.height) + 2)
        for dom in domains:
            self._route_domain(
                dom, terminals, windows, compiled, state,
                occupancy, history, node_cost,
                trees, paths, wires, result,
            )

        n_wires = compiled.n_wires
        for index, (net, _, _) in enumerate(terminals):
            result.nets[net.name] = RoutedNet(
                net.name, tuple(sorted(trees[index])), paths[index], n_wires
            )
        return result

    # ------------------------------------------------------- one domain
    def _route_domain(
        self,
        dom: list[int],
        terminals: list[_Terminal],
        windows: list[_Window],
        compiled,
        state: _SearchState,
        occupancy: list[int],
        history: list[float],
        node_cost: list[float],
        trees: list,
        paths: list,
        wires: list[list[int]],
        result: RoutingResult,
    ) -> None:
        """Negotiation loop of one congestion domain.

        Mutates only this domain's entries of the shared per-net/per-node
        state, and adds its effort to ``result``'s counters.
        """
        n_wires = compiled.n_wires
        base = compiled.base_cost

        for iteration in range(1, self.max_iterations + 1):
            present = self.present_cost_factor * iteration
            if iteration == 1:
                targets = dom
            else:
                # refresh this domain's used-wire costs under the new
                # present factor, then rip up every net touching an
                # overused wire
                for i in dom:
                    for u in wires[i]:
                        node_cost[u] = base[u] * (1.0 + present * occupancy[u]) * (1.0 + history[u])
                targets = [i for i in dom if any(occupancy[u] > 1 for u in wires[i])]
                result.rerouted_nets += len(targets)
                for i in targets:
                    for u in wires[i]:
                        occ = occupancy[u] - 1
                        occupancy[u] = occ
                        node_cost[u] = base[u] * (1.0 + present * occ) * (1.0 + history[u])
                    wires[i] = []

            for i in targets:
                t0 = time.perf_counter()
                tree, sink_paths, expanded = self._route_net(
                    terminals[i], windows[i], compiled, state, node_cost, i
                )
                result.expand_seconds += time.perf_counter() - t0
                result.nodes_expanded += expanded
                trees[i] = tree
                paths[i] = sink_paths
                net_wires = [u for u in tree if u < n_wires]
                wires[i] = net_wires
                for u in net_wires:
                    occ = occupancy[u] + 1
                    occupancy[u] = occ
                    node_cost[u] = base[u] * (1.0 + present * occ) * (1.0 + history[u])

            overused = {u for i in dom for u in wires[i] if occupancy[u] > 1}
            if not overused:
                result.iterations = max(result.iterations, iteration)
                return
            # independent += on distinct indices: order cannot matter
            for u in overused:  # repro-lint: disable=DET002
                history[u] += self.history_cost_factor * (occupancy[u] - 1)

        raise RoutingError(
            f"routing did not converge after {self.max_iterations} iterations "
            f"({len(overused)} overused wires); increase the channel width"
        )

    # --------------------------------------------------------- one net
    def _route_net(
        self,
        terminal: _Terminal,
        window: _Window,
        compiled,
        state: _SearchState,
        node_cost: list[float],
        rotation: int,
    ) -> tuple[list[int], dict[tuple[int, int], tuple[int, ...]], int]:
        """Route one net as a tree; returns (tree, sink paths, expansions).
        ``rotation``, the net's index, picks the track its ties prefer."""
        net, source, sinks = terminal
        on_tree = state.on_tree
        prev = state.prev
        expansions = 0

        net_stamp = state.stamp + 1
        tree = [source]
        on_tree[source] = net_stamp
        sink_paths: dict[tuple[int, int], tuple[int, ...]] = {}
        for pos, sink in sinks:
            if on_tree[sink] == net_stamp:
                sink_paths[pos] = (sink,)
                continue
            state.stamp = net_stamp = state.stamp + 1
            found, expanded = self._search(
                compiled, state, node_cost, tree, net_stamp, sink, window, rotation
            )
            expansions += expanded
            if not found:
                raise RoutingError(
                    f"no path to sink pin at ({compiled.x[sink]}, {compiled.y[sink]}) "
                    f"inside the net's search window; increase the channel width"
                )
            path = [sink]
            u = sink
            while prev[u] != -1:
                u = prev[u]
                path.append(u)
            path.reverse()
            sink_paths[pos] = path = tuple(path)
            for u in path:
                if on_tree[u] != net_stamp:
                    on_tree[u] = net_stamp
                    tree.append(u)
        return tree, sink_paths, expansions

    def _search(
        self,
        compiled,
        state: _SearchState,
        node_cost: list[float],
        tree: list[int],
        net_stamp: int,
        sink: int,
        window: _Window,
        rotation: int = 0,
    ) -> tuple[bool, int]:
        """Window-confined admissible A* from the net's tree to one sink.

        Heap entries are ``(f, -g, -rank, id)`` (:func:`_rank`, rotated by
        ``rotation``): among equal ``f`` the deepest node first, then the
        highest rank, and keys are unique, so the expansion order — and with
        it every predecessor label — is deterministic.  The wires a wire
        leads to share its track, so each one's rank is its id plus the
        popped wire's ``rank - id``.  ``tree[0]`` is the net's source pin;
        ``dist[sink]`` is the cost of the path found.

        The source pin reaches every track of its channels, and the tracks
        of one channel share ``h``: their keys are known in order without
        pushing them (:func:`_key_order`).  The heap holds one wire per
        channel, and popping it pushes the channel's next; every label and
        every expansion is the one pushing them all at once would give.
        """
        neighbors_of = compiled.geometry.neighbors_of
        tracks = compiled.geometry.tracks
        node_x = compiled.x
        node_y = compiled.y
        n_wires = compiled.n_wires
        dist = state.dist
        prev = state.prev
        seen = state.seen
        on_tree = state.on_tree
        look_h, look_v = state.look_h, state.look_v
        lo_x, hi_x, lo_y, hi_y = window
        # table index of a node at (x, y): [x + ox][y + oy]
        ox = state.span - node_x[sink]
        oy = state.span - node_y[sink]
        pop = heappop
        push = heappush

        # the tree is free (g = 0).  Its wires start at their lookahead, the
        # source pin a wire above its nearest channel's, so its fan-out over
        # every track opens only when no tree wire is closer; its input pins
        # lead nowhere and get no entry
        source = tree[0]
        px = node_x[source] + ox
        py = node_y[source] + oy
        nearest = min(look_h[px][py], look_h[px][py - 1], look_v[px][py], look_v[px - 1][py])
        source_f = WIRE_BASE_COST + nearest
        heap = [(source_f, 0.0, -source, source)]
        for u in tree:
            on_tree[u] = net_stamp
            seen[u] = net_stamp
            dist[u] = 0.0
            prev[u] = -1
            if u < n_wires:
                h = (look_v if u & 1 else look_h)[node_x[u] + ox][node_y[u] + oy]
                heap.append((h, 0.0, -_rank(u, tracks, rotation), u))
        heapify(heap)

        #: fan-out wire in the heap -> (the rest of its channel, the channel's h)
        fanout: dict[int, tuple] = {}
        expansions = 0
        while heap:
            _, d, key, u = pop(heap)
            d = -d
            if d > dist[u]:
                continue
            expansions += 1
            if u == sink:
                return True, expansions
            if u < n_wires:
                opened = (fanout.pop(u),) if u in fanout else ()
                adjacent = neighbors_of(u)
                # a neighbouring wire v shares u's track: its key,
                # -rank(v), is -(v + rank(u) - u) = shift - v
                shift = key + u
            else:
                # the source: the only other pin that is ever pushed
                opened = []
                for channel in compiled.geometry.opin_channels(u):
                    v = channel[0]
                    vx, vy = node_x[v], node_y[v]
                    if lo_x <= vx <= hi_x and lo_y <= vy <= hi_y:
                        h = (look_v if v & 1 else look_h)[vx + ox][vy + oy]
                        opened.append((_key_order(channel, node_cost, h, rotation), h))
                adjacent = ()
            for rest, h in opened:
                for v in rest:
                    if on_tree[v] == net_stamp:
                        continue
                    nd = node_cost[v]  # the source's g is 0
                    if seen[v] != net_stamp:
                        seen[v] = net_stamp
                    elif nd >= dist[v]:
                        # no label is below a wire's own cost: a tree wire
                        # (g = 0 too) labelled v and pushed this very key;
                        # the source's label stands unless that wire's own
                        # key, (h, 0, -rank), popped before the source's
                        w = prev[v]
                        if source_f <= (look_v if w & 1 else look_h)[node_x[w] + ox][node_y[w] + oy]:
                            prev[v] = source
                        continue
                    dist[v] = nd
                    prev[v] = source
                    push(heap, (nd + h, -nd, -_rank(v, tracks, rotation), v))
                    fanout[v] = (rest, h)
                    break
            for v in adjacent:
                if v >= n_wires:
                    # input pins have no out-edges: only the sink matters
                    if v != sink:
                        continue
                    h = 0.0
                    key = -v
                elif on_tree[v] == net_stamp:
                    continue
                else:
                    vx = node_x[v]
                    if vx < lo_x or vx > hi_x:
                        continue
                    vy = node_y[v]
                    if vy < lo_y or vy > hi_y:
                        continue
                    h = (look_v if v & 1 else look_h)[vx + ox][vy + oy]
                    key = shift - v
                nd = d + node_cost[v]
                if seen[v] != net_stamp:
                    seen[v] = net_stamp
                elif nd >= dist[v]:
                    continue
                dist[v] = nd
                prev[v] = u
                push(heap, (nd + h, -nd, key, v))
        return False, expansions
