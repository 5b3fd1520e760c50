"""Tests of the PathFinder router and timing analysis."""

import pytest

from repro.arch.params import RoutingParams
from repro.errors import InvalidRequestError
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import Placement
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter, RoutingError
from repro.pnr.rrgraph import RoutingResourceGraph
from repro.pnr.timing import analyze_timing


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

    def test_spike_cycle_bounded_by_pe_cycle(self):
        fabric = FabricGrid(2, 2)
        netlist, placement = grid_netlist_and_placement(2, fabric)
        graph = RoutingResourceGraph(fabric, channel_width=8)
        routing = PathFinderRouter(graph).route(netlist, placement)
        report = analyze_timing(routing)
        assert report.spike_cycle_ns(pe_cycle_ns=2.443) >= 2.443
