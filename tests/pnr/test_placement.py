"""Tests of the simulated-annealing placer."""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    Placement,
    _AnnealState,
    _NetGeometry,
)


def chain_netlist(n_blocks: int) -> FunctionBlockNetlist:
    netlist = FunctionBlockNetlist("chain")
    for i in range(n_blocks):
        netlist.add_block(Block(f"pe{i}", BlockType.PE))
    for i in range(n_blocks - 1):
        netlist.add_net(Net(f"net{i}", driver=f"pe{i}", sinks=(f"pe{i+1}",)))
    return netlist


class TestPlacement:
    def test_net_hpwl(self):
        fabric = FabricGrid(4, 4)
        placement = Placement(fabric, positions={"a": (0, 0), "b": (3, 2)})
        net = Net("n", driver="a", sinks=("b",))
        assert placement.net_hpwl(net) == 5

    def test_missing_block_raises(self):
        placement = Placement(FabricGrid(2, 2))
        with pytest.raises(KeyError):
            placement.position("ghost")


class TestSimulatedAnnealingPlacer:
    """``ParallelAnnealingPlacer`` — the one simulated-annealing placer."""

    def test_all_blocks_placed_on_distinct_sites(self):
        netlist = chain_netlist(12)
        placement = ParallelAnnealingPlacer(seed=0).place(netlist)
        positions = list(placement.positions.values())
        assert len(positions) == 12
        assert len(set(positions)) == 12

    def test_io_blocks_on_periphery(self):
        netlist = chain_netlist(4)
        netlist.add_block(Block("__input__", BlockType.IO))
        netlist.add_net(Net("io", driver="__input__", sinks=("pe0",)))
        fabric = FabricGrid(4, 4)
        placement = ParallelAnnealingPlacer(seed=1).place(netlist, fabric)
        io_sites = {site.position for site in fabric.io_sites()}
        for name, position in placement.positions.items():
            assert (position in io_sites) == (name == "__input__")

    def test_placement_improves_over_random(self):
        """The annealer ends below the wirelength of the random placement
        it starts from (the state its own seed stream draws)."""
        netlist = chain_netlist(20)
        fabric = FabricGrid(6, 6)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        initial = _AnnealState(_NetGeometry(netlist), fabric, rng).total
        placer = ParallelAnnealingPlacer(seed=3)
        annealed = placer.place(netlist, fabric)
        assert placer.last_stats.temperatures, "the schedule never ran"
        assert annealed.total_wirelength(netlist.nets) == placer.last_stats.final_cost
        assert placer.last_stats.final_cost < initial

    def test_chain_placement_is_compact(self):
        """A 9-block chain on a 3x3 fabric admits a wirelength-9 snake; the
        annealer should get reasonably close."""
        netlist = chain_netlist(9)
        fabric = FabricGrid(3, 3)
        placement = ParallelAnnealingPlacer(seed=5).place(netlist, fabric)
        assert placement.total_wirelength(netlist.nets) <= 14

    def test_too_many_blocks_rejected(self):
        netlist = chain_netlist(10)
        with pytest.raises(CapacityError):
            ParallelAnnealingPlacer().place(netlist, FabricGrid(3, 3))

    def test_too_many_io_blocks_rejected(self):
        # a 1x1 fabric has four peripheral I/O sites
        netlist = chain_netlist(1)
        for i in range(5):
            netlist.add_block(Block(f"io{i}", BlockType.IO))
        with pytest.raises(CapacityError):
            ParallelAnnealingPlacer().place(netlist, FabricGrid(1, 1))

    def test_deterministic_given_seed(self):
        netlist = chain_netlist(10)
        a = ParallelAnnealingPlacer(seed=7).place(netlist, FabricGrid(4, 4))
        b = ParallelAnnealingPlacer(seed=7).place(netlist, FabricGrid(4, 4))
        assert a.positions == b.positions
