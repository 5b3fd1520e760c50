"""Tests of the PathFinder router and timing analysis."""

import hashlib
import json
import pickle
import random
from dataclasses import astuple
from heapq import heapify, heappop, heappush
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import RoutingParams
from repro.errors import InvalidRequestError
from repro.mapper.mapper import SpatialTemporalMapper
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.models.zoo import build_model
from repro.pnr import routing as routing_module
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import Placement
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter, RoutingError, _key_order, _rank, _SearchState
from repro.pnr.rrgraph import WIRE_BASE_COST, RoutingResourceGraph, RRNode
from repro.pnr.timing import analyze_timing
from repro.synthesizer.synthesizer import synthesize


def grid_netlist_and_placement(n: int, fabric: FabricGrid):
    """n x n blocks placed on a grid, each driving its right/down neighbours."""
    netlist = FunctionBlockNetlist("grid")
    placement = Placement(fabric)
    for x in range(n):
        for y in range(n):
            name = f"pe{x}_{y}"
            netlist.add_block(Block(name, BlockType.PE))
            placement.positions[name] = (x, y)
    idx = 0
    for x in range(n):
        for y in range(n):
            sinks = []
            if x + 1 < n:
                sinks.append(f"pe{x+1}_{y}")
            if y + 1 < n:
                sinks.append(f"pe{x}_{y+1}")
            if sinks:
                netlist.add_net(Net(f"net{idx}", driver=f"pe{x}_{y}", sinks=tuple(sinks)))
                idx += 1
    return netlist, placement


class TestPathFinderRouter:
    def test_routes_simple_grid_legally(self):
        fabric = FabricGrid(3, 3)
        netlist, placement = grid_netlist_and_placement(3, fabric)
        graph = RoutingResourceGraph(fabric, channel_width=8)
        result = PathFinderRouter(graph).route(netlist, placement)
        assert result.legal
        assert result.total_wirelength > 0
        assert len(result.nets) == len(netlist.nets)

    def test_adjacent_blocks_use_short_routes(self):
        fabric = FabricGrid(2, 1)
        netlist = FunctionBlockNetlist("pair")
        netlist.add_block(Block("a", BlockType.PE))
        netlist.add_block(Block("b", BlockType.PE))
        netlist.add_net(Net("n", driver="a", sinks=("b",)))
        placement = Placement(fabric, positions={"a": (0, 0), "b": (1, 0)})
        graph = RoutingResourceGraph(fabric, channel_width=4)
        result = PathFinderRouter(graph).route(netlist, placement)
        assert result.nets["n"].wirelength <= 2

    def test_multi_sink_net_forms_tree(self):
        fabric = FabricGrid(3, 3)
        netlist = FunctionBlockNetlist("fanout")
        for name in ("src", "s1", "s2", "s3"):
            netlist.add_block(Block(name, BlockType.PE))
        netlist.add_net(Net("n", driver="src", sinks=("s1", "s2", "s3")))
        placement = Placement(
            fabric,
            positions={"src": (1, 1), "s1": (0, 0), "s2": (2, 2), "s3": (2, 0)},
        )
        graph = RoutingResourceGraph(fabric, channel_width=4)
        result = PathFinderRouter(graph).route(netlist, placement)
        net = result.nets["n"]
        assert set(net.sink_paths) == {(0, 0), (2, 2), (2, 0)}
        # a tree shares wires: wirelength strictly less than 3 separate routes
        assert net.wirelength < 3 * 4

    def test_insufficient_channel_width_raises(self):
        fabric = FabricGrid(2, 1)
        netlist = FunctionBlockNetlist("congested")
        netlist.add_block(Block("a", BlockType.PE))
        netlist.add_block(Block("b", BlockType.PE))
        # many parallel 2-terminal nets through a width-1 channel
        for i in range(8):
            netlist.add_net(Net(f"n{i}", driver="a", sinks=("b",)))
        placement = Placement(fabric, positions={"a": (0, 0), "b": (1, 0)})
        graph = RoutingResourceGraph(fabric, channel_width=1)
        with pytest.raises(RoutingError):
            PathFinderRouter(graph, max_iterations=5).route(netlist, placement)

    def test_zero_iterations_rejected(self):
        # used to fall through the negotiation loop into an UnboundLocalError
        graph = RoutingResourceGraph(FabricGrid(2, 2), channel_width=2)
        with pytest.raises(InvalidRequestError):
            PathFinderRouter(graph, max_iterations=0)
        with pytest.raises(InvalidRequestError):
            PlaceAndRoute(max_route_iterations=0).run(
                grid_netlist_and_placement(2, FabricGrid(2, 2))[0]
            )

    def test_crossing_nets_route_on_distinct_tracks_in_one_iteration(self):
        # a runs up column 1 and b crosses it westwards.  A sink's branch
        # leaves its net's tree on the tree's track, so two trees on one
        # track met on a wire there and were negotiated apart; the nets'
        # indices rotate their ties onto tracks 3 and 2
        fabric = FabricGrid(3, 3)
        netlist = FunctionBlockNetlist("crossing")
        positions = {
            "a": (1, 0), "a1": (1, 1), "a2": (1, 2),
            "b": (2, 0), "b1": (2, 1), "b2": (0, 2),
        }
        for name in positions:
            netlist.add_block(Block(name, BlockType.PE))
        netlist.add_net(Net("na", driver="a", sinks=("a1", "a2")))
        netlist.add_net(Net("nb", driver="b", sinks=("b1", "b2")))
        graph = RoutingResourceGraph(fabric, channel_width=4)
        result = PathFinderRouter(graph).route(netlist, Placement(fabric, positions=positions))
        assert result.legal
        assert (result.iterations, result.rerouted_nets) == (1, 0)
        node = result.geometry.node
        assert [
            {node(u).track for u in result.nets[name].nodes[:result.nets[name].wirelength]}
            for name in ("na", "nb")
        ] == [{3}, {2}]

    def test_congestion_negotiation_resolves_conflicts(self):
        fabric = FabricGrid(2, 2)
        netlist = FunctionBlockNetlist("negotiate")
        for name in ("a", "b", "c", "d"):
            netlist.add_block(Block(name, BlockType.PE))
        netlist.add_net(Net("n0", driver="a", sinks=("b",)))
        netlist.add_net(Net("n1", driver="c", sinks=("d",)))
        netlist.add_net(Net("n2", driver="a", sinks=("d",)))
        netlist.add_net(Net("n3", driver="c", sinks=("b",)))
        placement = Placement(
            fabric, positions={"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
        )
        graph = RoutingResourceGraph(fabric, channel_width=2)
        result = PathFinderRouter(graph).route(netlist, placement)
        assert result.legal
        assert result.max_channel_occupancy() <= 2


class TestTiming:
    def test_timing_report_from_routing(self):
        fabric = FabricGrid(3, 3)
        netlist, placement = grid_netlist_and_placement(3, fabric)
        graph = RoutingResourceGraph(fabric, channel_width=8)
        routing = PathFinderRouter(graph).route(netlist, placement)
        report = analyze_timing(routing, RoutingParams())
        assert report.critical_path_ns > 0
        assert report.mean_delay_ns <= report.critical_path_ns
        assert report.critical_net in routing.nets
        assert report.mean_segments > 0

    def test_empty_routing(self):
        from repro.pnr.routing import RoutingResult

        report = analyze_timing(RoutingResult())
        assert report.critical_path_ns == 0.0


# --------------------------------------------------------------------------
# the lazy source fan-out and the arithmetic neighbour rule change no routing
# --------------------------------------------------------------------------

def zoo_netlist(model: str, duplication_degree: int):
    return SpatialTemporalMapper().map(
        synthesize(build_model(model)), duplication_degree=duplication_degree
    ).netlist


def routing_digest(result) -> str:
    """Every routed node, every sink path in routing order, every counter —
    node ids decoded, so the digests recorded over ``RRNode`` sets hold."""
    routing = result.routing

    def decoded(u):
        return astuple(routing.geometry.node(u))

    rows = [
        (
            name,
            sorted(map(decoded, net.nodes)),
            [(pos, list(map(decoded, path))) for pos, path in net.sink_paths.items()],
        )
        for name, net in sorted(routing.nets.items())
    ]
    counters = (
        routing.iterations, routing.nodes_expanded, routing.rerouted_nets,
        routing.domains, result.total_wirelength, result.critical_path_ns,
    )
    return hashlib.sha256(repr((rows, counters)).encode()).hexdigest()


GOLDEN_CASES = sorted((Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_CASES, ids=[p.stem for p in GOLDEN_CASES])
def test_routing_is_bit_identical_to_the_recorded_digests(path):
    """``routing_digests.json`` was recorded at ``pnr-v7``, when the
    search's ties began to prefer a track rotated by the net's index.  A
    digest that moves means routings changed: say which and why before
    re-recording (and bump ``_PNR_ARTIFACT_VERSION``)."""
    recorded = json.loads((Path(__file__).parent / "routing_digests.json").read_text())
    golden = json.loads(path.read_text())
    netlist = zoo_netlist(golden["model"], golden["duplication_degree"])
    for seed in range(4):
        result = PlaceAndRoute(channel_width=golden["channel_width"], seed=seed).run(netlist)
        assert routing_digest(result) == recorded[f"{path.stem}-seed{seed}"], (path.stem, seed)


def test_lenet_d2_pushes_few_heap_entries_per_search(monkeypatch):
    """Counts repeat exactly: 62 searches, 667 pushes (89 and 1 187 while
    every net's ties preferred the top track).  Pushing the source pin's
    4 x 64 wires eagerly took 14 778 (149 a search)."""
    counts = {"pushes": 0, "searches": 0}
    search = PathFinderRouter._search

    def counted_search(self, *args):
        counts["searches"] += 1
        return search(self, *args)

    def counted_push(heap, item):
        counts["pushes"] += 1
        heappush(heap, item)

    monkeypatch.setattr(PathFinderRouter, "_search", counted_search)
    monkeypatch.setattr(routing_module, "heappush", counted_push)
    assert PlaceAndRoute(seed=0).run(zoo_netlist("LeNet", 2)).routing.legal
    assert counts["searches"] == 62
    assert counts["pushes"] <= 30 * counts["searches"], counts


def rank(compiled, u, rotation):
    """The tie-break order, from the decoded node: a wire's id with its
    track rotated by ``rotation``, a pin's id."""
    if u >= compiled.n_wires:
        return u
    track = compiled.geometry.node(u).track
    return u + 2 * ((track + rotation) % compiled.geometry.tracks - track)


def eager_search(compiled, state, node_cost, tree, net_stamp, sink, window, rotation):
    """The search as it was at ``10e5c39`` — every neighbour of every
    expanded node pushed at once, read from adjacency lists — with ties
    broken on :func:`rank`, and the oracle for the lazy fan-out: same
    labels, same expansions."""
    neighbors_of = compiled.geometry.neighbors_of
    node_x, node_y, n_wires = compiled.x, compiled.y, compiled.n_wires
    dist, prev, seen, on_tree = state.dist, state.prev, state.seen, state.on_tree
    look_h, look_v = state.look_h, state.look_v
    lo_x, hi_x, lo_y, hi_y = window
    ox = state.span - node_x[sink]
    oy = state.span - node_y[sink]

    def lookahead(u):
        return (look_v if u & 1 else look_h)[node_x[u] + ox][node_y[u] + oy]

    source = tree[0]
    px, py = node_x[source] + ox, node_y[source] + oy
    nearest = min(look_h[px][py], look_h[px][py - 1], look_v[px][py], look_v[px - 1][py])
    heap = [(WIRE_BASE_COST + nearest, 0.0, -source, source)]
    for u in tree:
        on_tree[u] = seen[u] = net_stamp
        dist[u] = 0.0
        prev[u] = -1
        if u < n_wires:
            heap.append((lookahead(u), 0.0, -rank(compiled, u, rotation), u))
    heapify(heap)
    expansions = 0
    while heap:
        _, d, _, u = heappop(heap)
        d = -d
        if d > dist[u]:
            continue
        expansions += 1
        if u == sink:
            return True, expansions
        for v in neighbors_of(u):
            if v >= n_wires:
                if v != sink:
                    continue
                h = 0.0
            elif on_tree[v] == net_stamp:
                continue
            elif not (lo_x <= node_x[v] <= hi_x and lo_y <= node_y[v] <= hi_y):
                continue
            else:
                h = lookahead(v)
            nd = d + node_cost[v]
            if seen[v] != net_stamp:
                seen[v] = net_stamp
            elif nd >= dist[v]:
                continue
            dist[v] = nd
            prev[v] = u
            heappush(heap, (nd + h, -nd, -rank(compiled, v, rotation), v))
    return False, expansions


class TestLazyFanOutEqualsEagerSearch:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_labels_and_expansions_under_random_congestion(self, seed, monkeypatch):
        rng = random.Random(seed)
        width, height = rng.randint(2, 6), rng.randint(2, 6)
        tracks = rng.randint(1, 5)
        graph = RoutingResourceGraph(FabricGrid(width, height), channel_width=tracks)
        compiled = graph.compiled()
        router = PathFinderRouter(graph)
        span = max(width, height) + 2
        # few distinct costs, so whole channels tie and equal-cost labels
        # from tree wires and from the source pin meet on the same wire
        levels = rng.choice([(1.0,), (1.0, 1.5), (1.0, 1.5, 2.0, 3.75)])
        node_cost = [
            base * rng.choice(levels) if u < compiled.n_wires else base
            for u, base in enumerate(compiled.base_cost)
        ]
        blocks = rng.sample(
            [(x, y) for x in range(-1, width + 1) for y in range(-1, height + 1)],
            rng.randint(3, 6),
        )
        margin = rng.randint(0, 3)
        xs, ys = [b[0] for b in blocks], [b[1] for b in blocks]
        window = (min(xs) - margin, max(xs) + margin, min(ys) - margin, max(ys) + margin)

        popped = []

        def recording_pop(heap):
            popped.append(heap[0][3])
            return heappop(heap)

        monkeypatch.setattr(routing_module, "heappop", recording_pop)
        # the net's index rotates its ties: no rotation, each track's turn
        # at the top, and an index past the channel width
        for rotation in sorted({0, 1, tracks - 1, rng.randrange(tracks, 4 * tracks + 9)}):
            lazy, eager = _SearchState(len(compiled), span), _SearchState(len(compiled), span)
            tree = [compiled.geometry.pin_id("OPIN", *blocks[0])]
            for block in blocks[1:]:
                sink = compiled.geometry.pin_id("IPIN", *block)
                lazy.stamp = eager.stamp = lazy.stamp + 1
                del popped[:]
                outcome = router._search(
                    compiled, lazy, node_cost, tree, lazy.stamp, sink, window, rotation
                )
                assert outcome == eager_search(
                    compiled, eager, node_cost, tree, eager.stamp, sink, window, rotation
                ), rotation
                # a wire the lazy search popped has had its turn in the
                # fan-out: from then on its label is the eager one
                for u in popped:
                    assert (lazy.dist[u], lazy.prev[u]) == (eager.dist[u], eager.prev[u]), (
                        seed, rotation, compiled.geometry.node(u)
                    )
                if not outcome[0]:
                    continue
                path = [sink]
                while lazy.prev[path[-1]] != -1:
                    path.append(lazy.prev[path[-1]])
                tree.extend(u for u in path if lazy.on_tree[u] != lazy.stamp)


def quadratic_domains(windows):
    """``_domains`` as it was: every pair of windows compared."""
    parent = list(range(len(windows)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, (lo_xi, hi_xi, lo_yi, hi_yi) in enumerate(windows):
        for j in range(i + 1, len(windows)):
            lo_xj, hi_xj, lo_yj, hi_yj = windows[j]
            if hi_xi < lo_xj or hi_xj < lo_xi or hi_yi < lo_yj or hi_yj < lo_yi:
                continue
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(windows)):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


@settings(max_examples=200, deadline=None)
@given(
    windows=st.lists(
        st.tuples(
            st.integers(-3, 12), st.integers(0, 7), st.integers(-3, 12), st.integers(0, 7)
        ).map(lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3])),
        max_size=24,
    )
)
def test_swept_domains_equal_the_quadratic_partition_in_order(windows):
    assert PathFinderRouter._domains(windows) == quadratic_domains(windows)


def random_window_set(rng: random.Random, shape: str) -> list[tuple[int, int, int, int]]:
    """Search windows of one of four shapes: nested in each other, meeting
    edge to edge (or one short of it), clusters far apart, or one net."""
    def window(x, y, w, h):
        return (x, x + w, y, y + h)

    def corner():
        return rng.randint(-3, 9), rng.randint(-3, 9)

    if shape == "one-net":
        return [window(*corner(), rng.randint(0, 8), rng.randint(0, 8))]
    windows = []
    if shape == "nested":
        for _ in range(rng.randint(2, 5)):
            (x, y), w, h = corner(), rng.randint(6, 14), rng.randint(6, 14)
            while w >= 0 and h >= 0:
                windows.append(window(x, y, w, h))
                step = rng.randint(1, 3)
                x, y, w, h = x + step, y + rng.randint(0, step), w - 2 * step, h - 2 * step
    elif shape == "touching":
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        for _ in range(rng.randint(2, 12)):
            w, h = rng.randint(0, 5), rng.randint(0, 5)
            windows.append(window(x, y, w, h))
            # the next starts on this one's far edge, or one past it
            if rng.random() < 0.5:
                x += w + rng.randint(0, 1)
                y += rng.randint(-h, h)
            else:
                y += h + rng.randint(0, 1)
                x += rng.randint(-w, w)
    else:  # clusters far apart
        for cluster in range(rng.randint(2, 5)):
            cx, cy = 40 * cluster, rng.choice((0, 40))
            for _ in range(rng.randint(1, 6)):
                windows.append(window(
                    cx + rng.randint(0, 10), cy + rng.randint(0, 10),
                    rng.randint(0, 7), rng.randint(0, 7),
                ))
    rng.shuffle(windows)
    return windows


@pytest.mark.parametrize("shape", ["nested", "touching", "clusters", "one-net"])
def test_row_sweep_equals_the_pairwise_union_find(shape):
    rng = random.Random(shape)
    for _ in range(300):
        windows = random_window_set(rng, shape)
        assert PathFinderRouter._domains(windows) == quadratic_domains(windows), windows


def keyed_order(
    channel: range, node_cost: list[float], h: float, rotation: int = 0
) -> list[int]:
    """``_key_order`` as it was: the whole channel in one keyed sort, its
    wires ranked by their track rotated by ``rotation``."""
    tracks = len(channel)

    def rank(v):
        return channel.start + 2 * (((v - channel.start) // 2 + rotation) % tracks)

    costs = node_cost[channel.start:channel.stop:2]
    if min(costs) == max(costs):
        return sorted(channel, key=rank, reverse=True)
    return sorted(channel, key=lambda v: (node_cost[v] + h, -node_cost[v], -rank(v)))


def channel_costs(rng: random.Random, case: str, tracks: int) -> list[float]:
    """One channel's wire costs: tied levels, all equal, one wire
    congested, or all distinct."""
    if case == "ties":
        levels = [1.0 * (1 + 0.5 * k) * (1 + 0.4 * j) for k in range(3) for j in range(2)]
        return [rng.choice(levels[:rng.randint(2, 6)]) for _ in range(tracks)]
    if case == "all-equal":
        return [rng.choice((1.0, 2.25))] * tracks
    if case == "one-congested":
        costs = [1.0] * tracks
        costs[rng.randrange(tracks)] = rng.choice((1.5, 2.0, 3.75))
        return costs
    return [rng.uniform(1.0, 4.0) for _ in range(tracks)]


@pytest.mark.parametrize("case", ["ties", "all-equal", "one-congested", "distinct"])
def test_grouped_channel_order_equals_the_keyed_sort(case):
    rng = random.Random(case)
    for _ in range(200):
        tracks = rng.randint(1, 64)
        start = rng.randint(0, 40)
        channel = range(start, start + 2 * tracks, 2)
        node_cost = [rng.uniform(0.5, 9.0) for _ in range(channel.stop)]
        node_cost[channel.start:channel.stop:2] = channel_costs(rng, case, tracks)
        # a large h rounds distinct costs to one ``cost + h``: -cost decides
        h = rng.choice((0.0, 1.5, rng.uniform(0.5, 30.0), 2.0**53))
        assert list(_key_order(channel, node_cost, h)) == keyed_order(channel, node_cost, h)


@pytest.mark.parametrize("case", ["ties", "all-equal", "one-congested", "distinct"])
def test_rotated_channel_order_equals_the_keyed_sort_and_the_heap_rank(case):
    rng = random.Random(f"rotated-{case}")
    for _ in range(200):
        tracks = rng.randint(1, 64)
        # a channel of a fabric: its first id is a multiple of 2 * tracks,
        # plus 1 for a vertical one
        start = 2 * tracks * rng.randint(0, 5) + rng.randint(0, 1)
        channel = range(start, start + 2 * tracks, 2)
        node_cost = [rng.uniform(0.5, 9.0) for _ in range(channel.stop)]
        node_cost[channel.start:channel.stop:2] = channel_costs(rng, case, tracks)
        h = rng.choice((0.0, 1.5, rng.uniform(0.5, 30.0), 2.0**53))
        rotation = rng.randrange(3 * tracks)
        expected = keyed_order(channel, node_cost, h, rotation)
        assert list(_key_order(channel, node_cost, h, rotation)) == expected
        # the search's heap ranks a channel's wires the same way
        assert sorted(
            channel, key=lambda v: (node_cost[v] + h, -node_cost[v], -_rank(v, tracks, rotation))
        ) == expected


def test_place_and_route_builds_no_rrnode(monkeypatch):
    """A routing is node ids end to end: routing, wirelength, timing and
    the bitstream's switch counts never decode one."""
    from repro.core.compiler import FPSACompiler

    def refuse(self, *args, **kwargs):
        raise AssertionError("the compile path built an RRNode")

    netlist = zoo_netlist("LeNet", 2)
    monkeypatch.setattr(RRNode, "__init__", refuse)
    result = PlaceAndRoute(seed=0).run(netlist)
    assert result.routing.legal
    assert result.total_wirelength > 0 and result.critical_path_ns > 0
    assert result.routing.max_channel_occupancy() >= 1
    compiled = FPSACompiler(cache=False).compile(
        build_model("LeNet"), duplication_degree=2, run_pnr=True, emit_bitstream=True, seed=0
    )
    assert len(compiled.bitstream.routing) == len(compiled.pnr.routing.nets)


def test_a_pickled_routing_round_trips_equal_and_smaller():
    """The shared cache pickles the ``PnRResult``: ids pickle smaller than
    the same trees as ``RRNode`` sets, and come back equal."""
    result = PlaceAndRoute(seed=0).run(zoo_netlist("LeNet", 2))
    back = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    assert back.routing == result.routing
    assert back.timing == result.timing
    assert back.placement.positions == result.placement.positions
    assert routing_digest(back) == routing_digest(result)

    node = result.routing.geometry.node
    as_objects = {
        name: (
            set(map(node, net.nodes)),
            {pos: list(map(node, path)) for pos, path in net.sink_paths.items()},
        )
        for name, net in result.routing.nets.items()
    }
    ids = {name: (net.nodes, net.sink_paths) for name, net in result.routing.nets.items()}
    assert len(pickle.dumps(ids)) < len(pickle.dumps(as_objects)) / 2
