"""Property-based invariants of the P&R hot path.

Randomized netlists and move sequences check the invariants the optimized
implementations must uphold:

* placements are bijective (no two blocks share a site) and respect the
  core/I/O site split,
* every net is routed and no routing-resource wire exceeds its unit
  capacity in a legal result,
* the placer's incremental delta-cost evaluation agrees exactly with a
  from-scratch recomputation after any sequence of moves, swaps, commits
  and rejects.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import ParallelAnnealingPlacer, PlacementCostModel
from repro.pnr.routing import PathFinderRouter
from repro.pnr.rrgraph import RoutingResourceGraph


def random_netlist(rng: random.Random, n_blocks: int, n_nets: int, max_fanout: int):
    """A random connected-ish netlist of PE blocks plus one I/O pair."""
    netlist = FunctionBlockNetlist("random")
    names = [f"pe{i}" for i in range(n_blocks)]
    for name in names:
        netlist.add_block(Block(name, BlockType.PE))
    netlist.add_block(Block("__in__", BlockType.IO))
    netlist.add_net(Net("io", driver="__in__", sinks=(rng.choice(names),)))
    for i in range(n_nets):
        driver = rng.choice(names)
        fanout = rng.randint(1, max_fanout)
        sinks = tuple(rng.sample(names, min(fanout, len(names))))
        netlist.add_net(Net(f"n{i}", driver=driver, sinks=sinks))
    return netlist


netlist_params = st.tuples(
    st.integers(min_value=2, max_value=16),   # blocks
    st.integers(min_value=1, max_value=10),   # nets
    # fanouts beyond _BBOX_TRACK_THRESHOLD (12) exercise the incremental
    # bounding-box path of the cost model, not just the rescan path
    st.integers(min_value=1, max_value=15),   # max fanout
    st.integers(min_value=0, max_value=2**16),  # rng seed
)


class TestPlacementInvariants:
    @settings(max_examples=30, deadline=None)
    @given(params=netlist_params)
    def test_placement_is_bijective(self, params):
        n_blocks, n_nets, max_fanout, seed = params
        netlist = random_netlist(random.Random(seed), n_blocks, n_nets, max_fanout)
        fabric = FabricGrid.for_netlist(netlist)
        placement = ParallelAnnealingPlacer(seed=seed).place(netlist, fabric)

        assert set(placement.positions) == set(netlist.blocks)
        sites = list(placement.positions.values())
        assert len(sites) == len(set(sites)), "two blocks share a site"
        for name, (x, y) in placement.positions.items():
            if netlist.blocks[name].type == BlockType.IO:
                assert not fabric.contains(x, y), "I/O block on a core site"
            else:
                assert fabric.contains(x, y), "core block off the fabric"


class TestDeltaCostInvariant:
    @settings(max_examples=30, deadline=None)
    @given(
        params=netlist_params,
        n_moves=st.integers(min_value=1, max_value=60),
    )
    def test_delta_equals_full_recomputation(self, params, n_moves):
        """After any random move sequence the incrementally-tracked total
        equals a from-scratch sweep, and every proposed delta is exact."""
        n_blocks, n_nets, max_fanout, seed = params
        rng = random.Random(seed)
        netlist = random_netlist(rng, n_blocks, n_nets, max_fanout)
        span = max(4, n_blocks)
        positions = {
            name: (rng.randrange(span), rng.randrange(span))
            for name in netlist.blocks
        }
        model = PlacementCostModel(netlist, positions)
        assert model.total == model.full_cost()

        names = list(netlist.blocks)
        for _ in range(n_moves):
            block = rng.choice(names)
            swap = rng.choice(names) if rng.random() < 0.5 else None
            if swap == block:
                swap = None
            target = (rng.randrange(span), rng.randrange(span))
            before = model.total
            delta = model.propose(block, target, swap)
            if rng.random() < 0.5:
                model.commit()
                assert model.total == before + delta
            else:
                model.reject()
                assert model.total == before
            assert model.total == model.full_cost()

    def test_high_fanout_nets_use_bbox_tracking(self):
        """Nets above the tracking threshold keep exact incremental state."""
        rng = random.Random(7)
        netlist = random_netlist(rng, 20, 4, 18)
        positions = {
            name: (rng.randrange(10), rng.randrange(10)) for name in netlist.blocks
        }
        model = PlacementCostModel(netlist, positions)
        assert model._bbox, "expected at least one bbox-tracked net"
        names = list(netlist.blocks)
        for _ in range(300):
            block = rng.choice(names)
            swap = rng.choice(names) if rng.random() < 0.5 else None
            if swap == block:
                swap = None
            model.propose(block, (rng.randrange(10), rng.randrange(10)), swap)
            model.commit() if rng.random() < 0.7 else model.reject()
            assert model.total == model.full_cost()


class TestRoutingInvariants:
    @settings(max_examples=15, deadline=None)
    @given(params=netlist_params)
    def test_legal_routing_routes_every_net_within_capacity(self, params):
        n_blocks, n_nets, max_fanout, seed = params
        netlist = random_netlist(random.Random(seed), n_blocks, n_nets, max_fanout)
        fabric = FabricGrid.for_netlist(netlist)
        placement = ParallelAnnealingPlacer(seed=seed).place(netlist, fabric)
        graph = RoutingResourceGraph(fabric, channel_width=16)
        result = PathFinderRouter(graph).route(netlist, placement)

        assert result.legal
        routable = [net for net in netlist.nets if net.sinks]
        assert set(result.nets) == {net.name for net in routable}

        # every sink of every net has a driver-to-sink path in the tree
        for net in routable:
            routed = result.nets[net.name]
            sink_positions = {placement.position(s) for s in net.sinks}
            assert sink_positions == set(routed.sink_paths)
            for pos, path in routed.sink_paths.items():
                assert path, f"empty path to sink {pos}"
                assert path[-1].kind == "IPIN"
                assert (path[-1].x, path[-1].y) == pos
                assert all(node in routed.nodes for node in path)

        # capacity: in a legal routing no wire is claimed by two nets
        usage: dict = {}
        for name, routed in result.nets.items():
            for node in routed.nodes:
                if node.is_wire:
                    usage[node] = usage.get(node, 0) + 1
        assert all(count <= 1 for count in usage.values()), (
            "a wire node is claimed by two nets in a 'legal' routing"
        )
