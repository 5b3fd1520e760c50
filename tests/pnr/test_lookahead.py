"""The router's lookahead is what it says it is: an exact, admissible
geometric bound — and the search on top of it is optimal, cheap and
routes at the channel widths the weighted search did."""

from __future__ import annotations

import inspect
import random
from collections import deque
from heapq import heappop, heappush

import pytest

from repro.mapper.mapper import SpatialTemporalMapper
from repro.models.zoo import build_model
from repro.pnr.fabric import FabricGrid
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter, _lookahead, _SearchState
from repro.pnr.rrgraph import (
    PIN_BASE_COST,
    WIRE_BASE_COST,
    CompiledRRGraph,
    RoutingResourceGraph,
)
from repro.synthesizer.synthesizer import synthesize


def zoo_netlist(model: str, duplication_degree: int):
    mapping = SpatialTemporalMapper().map(
        synthesize(build_model(model)), duplication_degree=duplication_degree
    )
    return mapping.netlist


def further_wires(compiled: CompiledRRGraph, ipin: int) -> dict[int, int]:
    """Fewest further wires from every wire to ``ipin``, by breadth-first
    search from the wires at the pin (wire-to-wire edges go both ways)."""
    n_wires = compiled.n_wires
    neighbors_of = compiled.geometry.neighbors_of
    hops = {
        w: 0 for w in range(n_wires) if ipin in neighbors_of(w)
    }
    queue = deque(hops)
    while queue:
        u = queue.popleft()
        for v in neighbors_of(u):
            if v < n_wires and v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


class TestLookaheadTable:
    @pytest.mark.parametrize(
        "shape", [(2, 2, 2), (3, 4, 3), (5, 3, 4), (7, 7, 1)]
    )
    def test_admissible_everywhere_and_exact_for_core_sinks(self, shape):
        width, height, tracks = shape
        compiled = CompiledRRGraph.from_geometry(width, height, tracks)
        span = max(width, height) + 2
        look_h, look_v = _lookahead(span)
        n_wires = compiled.n_wires
        for ipin in range(n_wires + 1, len(compiled), 2):
            sx, sy = compiled.x[ipin], compiled.y[ipin]
            # a core block has all four of its channels; on the I/O ring
            # some are missing and the true count can only be larger
            in_core = 0 <= sx < width and 0 <= sy < height
            hops = further_wires(compiled, ipin)
            assert compiled.geometry.node(ipin).kind == "IPIN"
            # (the far corner of the I/O ring touches no channel at all)
            assert len(hops) == (0 if (sx, sy) == (width, height) else n_wires)
            for w, true_hops in hops.items():
                table = look_v if w & 1 else look_h
                bound = table[compiled.x[w] - sx + span][compiled.y[w] - sy + span]
                true_cost = WIRE_BASE_COST * true_hops + PIN_BASE_COST
                assert bound <= true_cost, (shape, compiled.geometry.node(w), (sx, sy))
                if in_core:
                    assert bound == true_cost, (shape, compiled.geometry.node(w), (sx, sy))


def lambda_tables(span: int):
    """``_lookahead`` as it was: both tables built entry by entry."""
    def near(d: int) -> int:
        return min(abs(d), abs(d + 1))

    def table(hops):
        return [
            [PIN_BASE_COST + WIRE_BASE_COST * hops(dx, dy) for dy in range(-span, span + 1)]
            for dx in range(-span, span + 1)
        ]

    return (
        table(lambda dx, dy: min(abs(dx) + near(dy), 1 + near(dx) + abs(dy))),
        table(lambda dx, dy: min(abs(dy) + near(dx), 1 + abs(dx) + near(dy))),
    )


@pytest.mark.parametrize("span", range(1, 41))
def test_broadcast_tables_equal_the_entrywise_ones(span):
    look_h, look_v = _lookahead(span)
    assert (look_h, look_v) == lambda_tables(span)
    assert all(type(cost) is float for row in look_h + look_v for cost in row)


def dijkstra(compiled, node_cost, tree, sink, window):
    """Plain Dijkstra under the search's rules: the tree is free, wires
    outside the window and pins other than the sink do not exist."""
    lo_x, hi_x, lo_y, hi_y = window
    best = {u: 0.0 for u in tree}
    heap = [(0.0, u) for u in tree]
    while heap:
        d, u = heappop(heap)
        if d > best[u]:
            continue
        if u == sink:
            return d
        for v in compiled.geometry.neighbors_of(u):
            if v >= compiled.n_wires:
                if v != sink:
                    continue
            elif not (lo_x <= compiled.x[v] <= hi_x and lo_y <= compiled.y[v] <= hi_y):
                continue
            nd = d + node_cost[v]
            if nd < best.get(v, float("inf")):
                best[v] = nd
                heappush(heap, (nd, v))
    return None


class TestSearchIsOptimal:
    @pytest.mark.parametrize("seed", range(20))
    def test_cost_equals_dijkstra_under_random_congestion(self, seed):
        rng = random.Random(seed)
        width, height = rng.randint(3, 7), rng.randint(3, 7)
        tracks = rng.randint(1, 3)
        graph = RoutingResourceGraph(FabricGrid(width, height), channel_width=tracks)
        compiled = graph.compiled()
        router = PathFinderRouter(graph)
        state = _SearchState(len(compiled), max(width, height) + 2)
        # congestion multiplies the base cost up on a random third of the
        # wires; quarters keep every path sum exact in floating point
        node_cost = [
            base * rng.choice((1.25, 1.5, 2.0, 3.75))
            if w < compiled.n_wires and rng.random() < 1 / 3 else base
            for w, base in enumerate(compiled.base_cost)
        ]

        def pin(x, y, ipin):
            return compiled.n_wires + 2 * ((x + 1) * (height + 2) + y + 1) + ipin

        blocks = rng.sample(
            [(x, y) for x in range(-1, width + 1) for y in range(-1, height + 1)], 4
        )
        margin = rng.randint(0, 3)
        xs, ys = [b[0] for b in blocks], [b[1] for b in blocks]
        window = (min(xs) - margin, max(xs) + margin, min(ys) - margin, max(ys) + margin)

        tree = [pin(*blocks[0], 0)]
        for block in blocks[1:]:
            sink = pin(*block, 1)
            expected = dijkstra(compiled, node_cost, tree, sink, window)
            state.stamp += 1
            found, _ = router._search(
                compiled, state, node_cost, tree, state.stamp, sink, window
            )
            assert found == (expected is not None)
            if not found:
                continue
            assert state.dist[sink] == expected
            u = sink
            while state.prev[u] != -1:
                if state.on_tree[u] != state.stamp:
                    tree.append(u)
                u = state.prev[u]


class TestSearchEffort:
    def test_lenet_d2_expands_few_nodes_per_search(self, monkeypatch):
        """Counts repeat exactly.  The 1.6-weighted ``manhattan - 2``
        search took 231 expansions a search here; a lookahead that
        silently degrades towards 0 lands back there."""
        searches = 0
        search = PathFinderRouter._search

        def counted(self, *args):
            nonlocal searches
            searches += 1
            return search(self, *args)

        monkeypatch.setattr(PathFinderRouter, "_search", counted)
        netlist = zoo_netlist("LeNet", 2)
        routing = PlaceAndRoute(seed=0).run(netlist).routing
        assert routing.legal
        # every sink connection is searched at least once, whatever the
        # placement; how many are ripped up and searched again is its doing
        assert searches >= sum(len(set(net.sinks)) for net in netlist.nets)
        assert routing.nodes_expanded <= 25 * searches

    @pytest.mark.parametrize("model", ["LeNet", "CIFAR-VGG17"])
    def test_routes_at_the_narrowest_width_the_weighted_search_did(self, model):
        """Channel width 3 is the smallest the weighted search routed
        either model at (seed 0, duplication 1)."""
        routing = PlaceAndRoute(channel_width=3, seed=0).run(zoo_netlist(model, 1)).routing
        assert routing.legal


def test_the_router_has_no_heuristic_weight_to_set():
    """The inflation knob went with the loose bound it compensated for;
    any keyword beyond these is a ``TypeError``."""
    assert list(inspect.signature(PathFinderRouter).parameters) == [
        "graph", "max_iterations", "present_cost_factor", "history_cost_factor", "options",
    ]
    graph = RoutingResourceGraph(FabricGrid(2, 2), channel_width=2)
    with pytest.raises(TypeError):
        PathFinderRouter(graph, heuristic_weight=1.2)
