"""Tests of the simulated-annealing placer."""

import functools
import hashlib
import inspect
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random_start import initial_positions
from reference_start import reference_start

from repro.core.api import deploy_model
from repro.errors import CapacityError
from repro.fuzz import ModelSpec, build_graph
from repro.mapper.mapper import SpatialTemporalMapper
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.models.zoo import build_model
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    Placement,
    PlacementCostModel,
    PlacementStats,
    start_positions,
)
from repro.seeding import derive_seed
from repro.synthesizer.synthesizer import synthesize


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
        its seed stream would draw (the start before the quadratic one)."""
        netlist = chain_netlist(20)
        fabric = FabricGrid(6, 6)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        initial = PlacementCostModel(
            netlist, initial_positions(netlist, fabric, rng)
        ).total
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


def zoo_netlist(model: str, duplication: int) -> FunctionBlockNetlist:
    return SpatialTemporalMapper().map(
        synthesize(build_model(model)), duplication_degree=duplication
    ).netlist


def place(netlist, seed):
    """``(placement, stats)`` of one annealing run."""
    placer = ParallelAnnealingPlacer(seed=seed)
    return placer.place(netlist), placer.last_stats


def placement_digest(placement, stats) -> str:
    """Every position, the final cost and the evaluated / accepted counts."""
    record = (
        sorted(placement.positions.items()),
        stats.final_cost,
        stats.moves_evaluated,
        stats.moves_accepted,
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


#: ``placement_digest`` of every entry, keyed ``{netlist}-seed{seed}``.
PLACEMENT_DIGESTS = json.loads(
    (Path(__file__).parent / "placement_digests.json").read_text()
)

#: the single-chip zoo points of the ``pnr_cold`` benchmark workload.
PNR_COLD_ZOO = [
    ("MLP-500-100", 1),
    ("LeNet", 1),
    ("LeNet", 4),
    ("CIFAR-VGG17", 1),
    ("CIFAR-VGG17", 4),
    ("CIFAR-VGG17", 16),
]


#: the keys of ``digest_netlists``.
PNR_COLD_NETLISTS = [
    *(f"{model}-d{dup}" for model, dup in PNR_COLD_ZOO),
    "CIFAR-VGG17-d1-c2-shard0",
    "CIFAR-VGG17-d1-c2-shard1",
]
CORPUS_DIR = Path(__file__).parents[1] / "fuzz" / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))
#: the corpus specs too large for a dense solve in tier-1
DENSE_SPECS = ("near-capacity-dense", "over-capacity-dense")


@functools.cache
def digest_netlists() -> dict[str, FunctionBlockNetlist]:
    """The ``pnr_cold`` zoo netlists by digest key: six single-chip points
    and the two shards of CIFAR-VGG17 d1 on two chips."""
    netlists = {f"{model}-d{dup}": zoo_netlist(model, dup) for model, dup in PNR_COLD_ZOO}
    sharded = deploy_model("CIFAR-VGG17", 1, num_chips=2, use_cache=False)
    for shard in sharded.shard_results:
        netlists[f"CIFAR-VGG17-d1-c2-shard{shard.index}"] = shard.mapping.netlist
    return netlists


def assert_one_cost(netlist, placement, stats):
    """Three independent computations of the final HPWL agree: the
    annealer's running total of exact deltas, a from-scratch sweep of a
    fresh cost model, and the per-net loop of ``Placement``."""
    recomputed = PlacementCostModel(netlist, placement.positions).full_cost()
    assert stats.final_cost == recomputed == placement.total_wirelength(netlist.nets)


def movable_blocks(netlist) -> int:
    connected = {b for net in netlist.nets for b in (net.driver, *net.sinks)}
    return sum(
        1 for block in netlist.blocks.values()
        if block.type != BlockType.IO and block.name in connected
    )


#: the netlists of ``tests/pnr/golden`` with the mean placement HPWL over
#: placer seeds 0-7 of the batched engine this annealer replaced.
REPLACED_ENGINE_MEAN_HPWL = {
    ("CIFAR-VGG17", 1): 496.9,
    ("LeNet", 1): 75.0,
    ("LeNet", 2): 80.4,
    ("LeNet", 8): 104.2,
    ("MLP-500-100", 1): 36.6,
    ("MLP-500-100", 2): 45.2,
}


@pytest.fixture(scope="module")
def golden_runs():
    """Each golden netlist placed at seeds 0-7, once for every test below
    (placement only, about 1.5 s)."""
    runs = {}
    for model, duplication in REPLACED_ENGINE_MEAN_HPWL:
        netlist = zoo_netlist(model, duplication)
        runs[model, duplication] = (netlist, [place(netlist, seed) for seed in range(8)])
    return runs


class TestAnnealerAccounting:
    def test_final_cost_three_ways_on_the_golden_netlists(self, golden_runs):
        for netlist, runs in golden_runs.values():
            for placement, stats in runs:
                assert_one_cost(netlist, placement, stats)

    @settings(max_examples=20, deadline=None)
    @given(
        n_blocks=st.integers(min_value=13, max_value=40),
        fanout=st.integers(min_value=12, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_final_cost_three_ways_with_a_tracked_net(self, n_blocks, fanout, seed):
        """A net of 12 pins or more keeps a counted bounding box that every
        move touching it updates."""
        rng = random.Random(seed)
        netlist = FunctionBlockNetlist("wide")
        names = [f"pe{i}" for i in range(n_blocks)]
        for name in names:
            netlist.add_block(Block(name, BlockType.PE))
        netlist.add_block(Block("__in__", BlockType.IO))
        netlist.add_net(Net("io", driver="__in__", sinks=(rng.choice(names),)))
        wide = rng.sample(names, min(fanout, n_blocks - 1) + 1)
        netlist.add_net(Net("wide", driver=wide[0], sinks=tuple(wide[1:])))
        for i in range(n_blocks):
            driver, sink = rng.sample(names, 2)
            netlist.add_net(Net(f"n{i}", driver=driver, sinks=(sink,)))
        placement, stats = place(netlist, seed)
        wide_net = 1
        assert PlacementCostModel(netlist, placement.positions).boxes[wide_net]
        assert_one_cost(netlist, placement, stats)

    @pytest.mark.parametrize("case", [("LeNet", 2), ("CIFAR-VGG17", 1)])
    def test_move_counts(self, golden_runs, case):
        """Counts repeat exactly.  Every temperature, and the final sweep,
        proposes two moves per movable block, and nearly all of them reach
        the cost model: the engine this replaced evaluated 7.6 % of what it
        proposed, and a proposal stream that is mostly discarded must not
        come back unnoticed."""
        netlist, runs = golden_runs[case]
        _, stats = runs[0]
        per_round = max(16, 2 * movable_blocks(netlist))
        assert stats.moves_proposed == (stats.rounds + 1) * per_round
        assert all(proposed == per_round for _, proposed, _ in stats.temperatures)
        assert stats.moves_evaluated >= 0.8 * stats.moves_proposed
        assert stats.moves_accepted <= stats.moves_evaluated

    def test_unit_cost_counts(self, golden_runs):
        """Counts repeat exactly: 2 434 evaluated moves price 10 696 nets
        and rescan 506 box axes.  A kernel that rescans whole nets, or
        prices a net it could skip, moves these before it moves a digest."""
        _, stats = golden_runs["LeNet", 2][1][0]
        assert (stats.moves_evaluated, stats.nets_repriced, stats.box_rescans) == (
            2434, 10696, 506
        )

    def test_mean_wirelength_no_worse_than_the_replaced_engine(self, golden_runs):
        """A distribution guard, not a one-seed lottery: the mean over
        seeds 0-7 per netlist, within 1 % of the replaced engine's and
        lower in total.  (Five cases read 2-7 % lower; LeNet d8 reads 104.6
        against 104.2, a third of the standard error of an 8-seed mean.)"""
        means = {
            case: sum(stats.final_cost for _, stats in runs) / len(runs)
            for case, (_, runs) in golden_runs.items()
        }
        for case, recorded in REPLACED_ENGINE_MEAN_HPWL.items():
            assert means[case] <= recorded * 1.01, (case, means[case], recorded)
        assert sum(means.values()) < sum(REPLACED_ENGINE_MEAN_HPWL.values())

    def test_alexnet_places_within_a_linear_budget(self):
        """1082 blocks and four 577-pin nets: 67 s and HPWL 13 436 for the
        replaced engine at this seed, 0.8-1.2 s here against 1.8-2.4 s
        before the move loop was fused (2-core box, by its load)."""
        netlist = zoo_netlist("AlexNet", 1)
        placement, stats = place(netlist, 7)
        assert stats.moves_proposed <= 300_000
        assert stats.final_cost <= 13_436
        assert_one_cost(netlist, placement, stats)
        assert placement_digest(placement, stats) == PLACEMENT_DIGESTS["AlexNet-d1-seed7"]


@pytest.mark.parametrize("seed", [0, 3])
def test_placements_are_bit_identical_to_the_recorded_digests(seed):
    """``placement_digests.json`` was recorded at ``ada977f``, whose move
    loop staged every move on the cost model and committed or rejected
    it.  A digest that moves means placements changed: say which and why
    before re-recording."""
    for name, netlist in digest_netlists().items():
        digest = placement_digest(*place(netlist, seed))
        assert digest == PLACEMENT_DIGESTS[f"{name}-seed{seed}"], (name, seed)


class TestQuadraticStart:
    """``start_positions``: the anneal's start, built from structure (its
    legality on any netlist is a property in ``test_properties.py``)."""

    def test_draws_nothing_and_repeats(self):
        netlist = zoo_netlist("LeNet", 4)
        fabric = FabricGrid.for_netlist(netlist)
        assert list(inspect.signature(start_positions).parameters) == ["netlist", "fabric"]
        global_state = np.random.get_state()[1].copy()
        start = start_positions(netlist, fabric)
        assert start_positions(netlist, fabric) == start
        assert np.array_equal(np.random.get_state()[1], global_state)
        cost = PlacementCostModel(netlist, start).total
        assert {place(netlist, seed)[1].start_cost for seed in (0, 1, 2)} == {cost}

    def test_the_seed_drives_only_the_moves(self):
        """The anneal's first round is the first thing its generator draws:
        replayed on the start from a fresh generator, it makes the same
        decisions."""
        netlist = zoo_netlist("LeNet", 4)
        fabric = FabricGrid.for_netlist(netlist)
        temperature, n, accepted = place(netlist, 11)[1].temperatures[0]
        model = PlacementCostModel(netlist, start_positions(netlist, fabric))
        core = [b for b, block in enumerate(netlist.blocks.values()) if block.type != BlockType.IO]
        occupant = [None] * fabric.n_sites
        for b in core:
            occupant[model.xs[b] * fabric.height + model.ys[b]] = b
        movable = np.array([b for b in core if model.nets_of[b]], dtype=np.int64)
        span = model.total / len(netlist.nets)
        rlim = max(1, round(min(max(fabric.width, fabric.height), max(1.0, span))))
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        assert ParallelAnnealingPlacer._round(
            model, occupant, movable, fabric, rng, PlacementStats(), n, temperature, rlim
        )[1] == accepted

    @pytest.mark.parametrize("n_core, n_io, size", [(10, 0, (3, 3)), (1, 5, (1, 1))])
    def test_raises_the_capacity_errors_of_the_random_start(self, n_core, n_io, size):
        netlist = chain_netlist(n_core)
        for i in range(n_io):
            netlist.add_block(Block(f"io{i}", BlockType.IO))
        fabric = FabricGrid(*size)
        with pytest.raises(CapacityError) as start:
            start_positions(netlist, fabric)
        with pytest.raises(CapacityError) as random_start:
            initial_positions(netlist, fabric, np.random.default_rng(0))
        assert str(start.value) == str(random_start.value)
        assert start.value.details == random_start.value.details

    @pytest.mark.parametrize(
        "name", [*PNR_COLD_NETLISTS, *(p.stem for p in CORPUS_FILES if p.stem not in DENSE_SPECS)]
    )
    def test_is_the_exact_solve(self, name):
        """The conjugate gradient's tolerance, not its iterate path, decides
        the start: it is the dense solve's on the ``pnr_cold`` zoo netlists
        and the fuzz corpus at d1.  The two dense specs (1 931 and 4 122
        blocks) and the ImageNet zoo at d1 are too large for dense solves
        here; CI's ``bench`` job checks them."""
        if name in PNR_COLD_NETLISTS:
            netlist = digest_netlists()[name]
        else:
            spec = ModelSpec.from_dict(json.loads((CORPUS_DIR / f"{name}.json").read_text()))
            netlist = SpatialTemporalMapper().map(
                synthesize(build_graph(spec)), duplication_degree=1
            ).netlist
        fabric = FabricGrid.for_netlist(netlist)
        assert start_positions(netlist, fabric) == reference_start(netlist, fabric)

    def test_starts_within_one_and_a_half_of_the_final_on_pnr_cold(self):
        """ROADMAP's stop rule for the start, kept as a guard: on each P&R
        result of the ``pnr_cold`` zoo points, at the benchmark's P&R seed,
        the start's HPWL is at most 1.5x the anneal's final (1.16-1.41x
        when recorded)."""
        seed = derive_seed(0, "pnr")
        for name, netlist in digest_netlists().items():
            start = start_positions(netlist, FabricGrid.for_netlist(netlist))
            _, stats = place(netlist, seed)
            assert stats.start_cost == PlacementCostModel(netlist, start).total
            assert stats.start_cost <= 1.5 * stats.final_cost, (name, stats)
