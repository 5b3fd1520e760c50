"""Property-based invariants of the P&R hot path.

Randomized netlists and move sequences check the invariants the optimized
implementations must uphold:

* placements, and the quadratic start of any netlist (with or without
  I/O blocks and nets), are bijective (no two blocks share a site) and
  respect the core/I/O site split,
* every net is routed and no routing-resource wire exceeds its unit
  capacity in a legal result,
* the placer's incremental delta-cost evaluation agrees exactly with a
  from-scratch recomputation after any rounds of moves, swaps, accepts
  and rejects.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from random_start import initial_positions

from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    PlacementCostModel,
    PlacementStats,
    start_positions,
)
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
    # fanouts of 2 and more put nets on the counted bounding box, beside
    # the two-pin nets priced in closed form
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


    @settings(max_examples=40, deadline=None)
    @given(
        n_core=st.integers(min_value=0, max_value=20),
        n_io=st.integers(min_value=0, max_value=4),
        n_nets=st.integers(min_value=0, max_value=12),
        spare_sites=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # no net joins two free nodes: a self-loop, nets to an I/O block, an
    # I/O-only net (the solve's Laplacian has only its diagonal)
    @example(n_core=3, n_io=2, n_nets=4, spare_sites=0, seed=2)
    # a net of three I/O blocks: a star anchored on every side
    @example(n_core=3, n_io=3, n_nets=3, spare_sites=0, seed=386)
    def test_start_is_legal_and_repeats(self, n_core, n_io, n_nets, spare_sites, seed):
        """Any netlist, with or without I/O blocks and nets, on a fabric
        with or without spare sites."""
        rng = random.Random(seed)
        netlist = FunctionBlockNetlist("start")
        names = [f"pe{i}" for i in range(n_core)] + [f"io{i}" for i in range(n_io)]
        for name in names:
            netlist.add_block(Block(name, BlockType.IO if name[:2] == "io" else BlockType.PE))
        for i in range(n_nets if names else 0):
            driver = rng.choice(names)
            sinks = tuple(rng.sample(names, rng.randint(1, min(len(names), 6))))
            netlist.add_net(Net(f"n{i}", driver=driver, sinks=sinks))
        width = max(1, math.isqrt(n_core + spare_sites))
        fabric = FabricGrid(width, max(1, -(-(n_core + spare_sites) // width)))

        positions = start_positions(netlist, fabric)
        assert start_positions(netlist, fabric) == positions
        assert set(positions) == set(netlist.blocks)
        assert len(set(positions.values())) == len(positions), "two blocks share a site"
        io_sites = {site.position for site in fabric.io_sites()}
        for name, (x, y) in positions.items():
            if netlist.blocks[name].type == BlockType.IO:
                assert (x, y) in io_sites, "I/O block off the I/O sites"
            else:
                assert fabric.contains(x, y), "core block off the fabric"


def annealing_start(netlist: FunctionBlockNetlist, seed: int):
    """What ``ParallelAnnealingPlacer.place`` sets up before its first
    round: the model on a random legal placement, the site occupancy and
    the movable blocks."""
    fabric = FabricGrid.for_netlist(netlist)
    rng = np.random.default_rng(seed)
    model = PlacementCostModel(netlist, initial_positions(netlist, fabric, rng))
    core = [b for b, block in enumerate(netlist.blocks.values()) if block.type != BlockType.IO]
    occupant = [None] * fabric.n_sites
    for b in core:
        occupant[model.xs[b] * fabric.height + model.ys[b]] = b
    movable = np.array([b for b in core if model.nets_of[b]], dtype=np.int64)
    return model, occupant, movable, fabric, rng


class TestDeltaCostInvariant:
    @settings(max_examples=30, deadline=None)
    @given(
        params=netlist_params,
        temperatures=st.lists(st.sampled_from([0.0, 1.0, 10.0]), min_size=1, max_size=6),
    )
    def test_delta_equals_full_recomputation(self, params, temperatures):
        """After every round of relocations, swaps, accepts and rejects the
        move loop's running total equals a from-scratch sweep."""
        n_blocks, n_nets, max_fanout, seed = params
        netlist = random_netlist(random.Random(seed), n_blocks, n_nets, max_fanout)
        model, occupant, movable, fabric, rng = annealing_start(netlist, seed)
        assert model.total == model.full_cost()
        stats = PlacementStats()
        rlim = max(fabric.width, fabric.height)
        for temperature in temperatures:
            ParallelAnnealingPlacer._round(
                model, occupant, movable, fabric, rng, stats, 40, temperature, rlim
            )
            assert model.total == model.full_cost()

    def test_high_fanout_nets_use_bbox_tracking(self):
        """Nets of three members or more keep a counted bounding box, and
        it stays equal to a fresh scan of the members."""
        netlist = random_netlist(random.Random(7), 20, 4, 18)
        model, occupant, movable, fabric, rng = annealing_start(netlist, 7)
        assert any(len(m) >= 12 and box for m, box in zip(model.members_by_net, model.boxes))
        stats = PlacementStats()
        for temperature in (10.0, 3.0, 1.0, 0.0):
            ParallelAnnealingPlacer._round(
                model, occupant, movable, fabric, rng, stats, 150, temperature, 3
            )
            assert model.boxes == PlacementCostModel(netlist, model.positions()).boxes
        assert stats.box_rescans > 0


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
                last = result.geometry.node(path[-1])
                assert last.kind == "IPIN"
                assert (last.x, last.y) == pos
                assert set(path) <= set(routed.nodes)

        # capacity: in a legal routing no wire is claimed by two nets
        usage: dict = {}
        for name, routed in result.nets.items():
            for u in routed.nodes:
                if result.geometry.node(u).is_wire:
                    usage[u] = usage.get(u, 0) + 1
        assert all(count <= 1 for count in usage.values()), (
            "a wire node is claimed by two nets in a 'legal' routing"
        )
