"""Differential and property tests of the P&R engine.

The engine runs on the calling thread and ignores its one execution knob:
any ``jobs`` value must produce the identical placement and routing for
the same seed, and start no thread.  The differential test pins that on
a real zoo netlist; the property tests pin the structural invariants the
engine rests on — the region grid tiles the fabric disjointly, the
batched annealer's merged move sequence replays serially to the same
state, congestion domains never share routing-resource nodes, and the
geometry-compiled RR graph equals the dict-built one node for node.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapper.mapper import SpatialTemporalMapper
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.models.zoo import build_model
from repro.pnr.fabric import FabricGrid
from repro.pnr.options import PnROptions
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    PlacementCostModel,
    RegionGrid,
    _AnnealState,
    _NetGeometry,
)
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter
from repro.pnr.rrgraph import CompiledRRGraph, RoutingResourceGraph
from repro.synthesizer.synthesizer import synthesize

CHANNEL_WIDTH = 24
SEED = 0

def run_pnr(netlist, **options):
    return PlaceAndRoute(
        channel_width=CHANNEL_WIDTH, seed=SEED, options=PnROptions(**options)
    ).run(netlist)


def assert_identical(a, b):
    """Bit-identity of two P&R results: placement, routed trees, timing."""
    assert a.placement.positions == b.placement.positions
    assert set(a.routing.nets) == set(b.routing.nets)
    for name, net in a.routing.nets.items():
        assert net.nodes == b.routing.nets[name].nodes
        assert net.sink_paths == b.routing.nets[name].sink_paths
    assert a.routing.nodes_expanded == b.routing.nodes_expanded
    assert a.routing.iterations == b.routing.iterations
    assert a.total_wirelength == b.total_wirelength
    assert a.critical_path_ns == b.critical_path_ns


def test_pnr_starts_no_thread(monkeypatch):
    """``jobs=4`` is accepted, builds no pool, starts no thread, and gives
    the ``jobs=None`` result (LeNet d2: >1 placement region, and — like
    every zoo netlist — one congestion domain)."""
    netlist = SpatialTemporalMapper().map(
        synthesize(build_model("LeNet")), duplication_degree=2
    ).netlist
    reference = run_pnr(netlist)

    def trap(*args, **kwargs):
        raise AssertionError("P&R must not leave the calling thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", trap)
    monkeypatch.setattr(threading.Thread, "start", trap)
    assert_identical(reference, run_pnr(netlist, jobs=4))


class TestEngineSelection:
    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            PnROptions(jobs=0)

    def test_removed_knobs_are_unknown_arguments(self):
        for removed in ({"engine": "serial"}, {"jit": True}, {"tempering": 2}):
            with pytest.raises(TypeError):
                PnROptions(**removed)


class TestJobsInvarianceOfKeys:
    """``pnr_jobs`` is a pure execution knob: same artifacts, same cache
    keys, same request fingerprints for any value."""

    def test_compile_artifacts_jobs_invariant(self):
        from repro.core.compiler import FPSACompiler

        graph = build_model("MLP-500-100")
        results = [
            FPSACompiler(cache=False).compile(
                graph, run_pnr=True, pnr_channel_width=16, seed=SEED,
                pnr_jobs=jobs,
            )
            for jobs in (None, 1, 4)
        ]
        first = results[0].pnr
        for other in results[1:]:
            assert other.pnr.placement.positions == first.placement.positions
            assert other.pnr.total_wirelength == first.total_wirelength
            assert other.pnr.critical_path_ns == first.critical_path_ns

    def test_pnr_cache_key_jobs_invariant(self):
        from repro.core.compiler import FPSACompiler
        from repro.core.pipeline import CompileContext, CompileOptions
        from repro.pnr.passes import PnRPass

        compiler = FPSACompiler(cache=False)
        graph = build_model("MLP-500-100")
        front = compiler.compile(graph, passes=("synthesis", "mapping"))

        def key(jobs):
            ctx = CompileContext(
                graph=graph,
                config=compiler.config,
                options=CompileOptions(run_pnr=True, seed=SEED, pnr_jobs=jobs),
                synthesis_options=compiler.synthesis_options,
            )
            ctx.mapping = front.mapping
            return PnRPass().cache_key(ctx)

        assert key(None) == key(1) == key(8)
        # re-recorded at pnr-v3: the router's lookahead changed routings,
        # so every older stage- and shared-cache entry is deliberately cut off
        assert key(None) == (
            "56b0f50c5e95aeeba879ffa73f6557b1f1f6ddf29fae8026c3de99e71b9521f5"
        )

    def test_request_fingerprint_jobs_invariant(self):
        from repro.service import CompileRequest

        base = CompileRequest(model="LeNet", run_pnr=True, seed=SEED)
        assert base.fingerprint() == (
            "8e4429be869e132f27564461efae0c10658a17bf79b2d928d10c346de1ff7c36"
        )
        for jobs in (1, 4, 32):
            assert (
                CompileRequest(
                    model="LeNet", run_pnr=True, seed=SEED, pnr_jobs=jobs
                ).fingerprint()
                == base.fingerprint()
            )

    def test_request_pnr_jobs_validated(self):
        from repro.errors import InvalidRequestError
        from repro.service import CompileRequest

        for bad in (0, -2, True, "four"):
            with pytest.raises(InvalidRequestError):
                CompileRequest(model="LeNet", pnr_jobs=bad)


class TestRegionGridProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=14),
        height=st.integers(min_value=1, max_value=14),
        target_span=st.integers(min_value=1, max_value=6),
    )
    def test_regions_disjointly_cover_the_fabric(self, width, height, target_span):
        grid = RegionGrid.for_fabric(width, height, target_span=target_span)
        groups = grid.sites_by_region()
        assert len(groups) == grid.n_regions
        seen = set()
        for region_id, sites in enumerate(groups):
            for site in sites:
                assert site not in seen, "regions overlap"
                seen.add(site)
                assert grid.region_of(*site) == region_id
        assert seen == {(x, y) for x in range(width) for y in range(height)}

    def test_region_shape_independent_of_jobs(self):
        # the grid is a pure function of the fabric: nothing else feeds it
        a = RegionGrid.for_fabric(9, 7)
        b = RegionGrid.for_fabric(9, 7)
        assert a == b


def random_netlist(rng: random.Random, n_blocks: int, n_nets: int, max_fanout: int):
    """A random netlist of PE blocks plus one I/O pair (mirrors the
    generator of test_properties.py)."""
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


class TestMergedMovesReplaySerially:
    @settings(max_examples=25, deadline=None)
    @given(
        params=st.tuples(
            st.integers(min_value=2, max_value=24),   # blocks
            st.integers(min_value=1, max_value=12),   # nets
            st.integers(min_value=1, max_value=6),    # max fanout
            st.integers(min_value=0, max_value=2**16),  # seed
        ),
        temperature=st.floats(min_value=0.01, max_value=50.0),
        n_batches=st.integers(min_value=1, max_value=4),
    )
    def test_batch_moves_replay_through_cost_model(
        self, params, temperature, n_batches
    ):
        """The accepted moves of a batch, applied one by one in merge order
        through the *serial* incremental cost model, must reach the exact
        state (coordinates and total cost) the batched engine reached."""
        n_blocks, n_nets, max_fanout, seed = params
        netlist = random_netlist(random.Random(seed), n_blocks, n_nets, max_fanout)
        fabric = FabricGrid.for_netlist(netlist)
        geometry = _NetGeometry(netlist)
        state = _AnnealState(geometry, fabric, np.random.default_rng(seed))

        model = PlacementCostModel(
            netlist,
            {
                name: (int(state.xs[i]), int(state.ys[i]))
                for i, name in enumerate(geometry.block_names)
            },
        )
        region = RegionGrid.for_fabric(fabric.width, fabric.height)
        region_of_site = np.array(
            [
                region.region_of(site // fabric.height, site % fabric.height)
                for site in range(fabric.width * fabric.height)
            ],
            dtype=np.int64,
        )
        placer = ParallelAnnealingPlacer(seed=seed)
        rlim = max(fabric.width, fabric.height)
        for _ in range(n_batches):
            *_, moves = placer._batch(
                geometry, state, fabric, region_of_site,
                temperature, rlim, batch=32, collect_moves=True,
            )
            for block, tx, ty, swap in moves:
                model.propose(
                    geometry.block_names[block],
                    (tx, ty),
                    None if swap == -1 else geometry.block_names[swap],
                )
                model.commit()

        replayed = model.positions()
        for i, name in enumerate(geometry.block_names):
            assert replayed[name] == (int(state.xs[i]), int(state.ys[i]))
        assert model.full_cost() == state.total


def window_overlaps(a, b) -> bool:
    alox, ahix, aloy, ahiy = a
    blox, bhix, bloy, bhiy = b
    return not (ahix < blox or bhix < alox or ahiy < bloy or bhiy < aloy)


class TestCongestionDomainProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(
                st.integers(min_value=-2, max_value=10),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=-2, max_value=10),
                st.integers(min_value=0, max_value=6),
            ).map(lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3])),
            min_size=1,
            max_size=14,
        )
    )
    def test_domains_partition_and_isolate(self, windows):
        domains = PathFinderRouter._domains(windows)
        flat = sorted(i for dom in domains for i in dom)
        assert flat == list(range(len(windows))), "not a partition"
        for a in range(len(domains)):
            for b in range(a + 1, len(domains)):
                for i in domains[a]:
                    for j in domains[b]:
                        assert not window_overlaps(windows[i], windows[j]), (
                            f"nets {i} and {j} overlap across domains"
                        )

    def test_disjoint_windows_share_no_rr_nodes(self):
        """The invariant the domain router rests on: nets whose windows
        are disjoint can never touch the same routing-resource node, so
        their congestion state is independent."""
        compiled = CompiledRRGraph.from_geometry(6, 6, 2)

        def nodes_in(window):
            lo_x, hi_x, lo_y, hi_y = window
            return {
                i
                for i, node in enumerate(compiled.nodes)
                if lo_x <= node.x <= hi_x and lo_y <= node.y <= hi_y
            }

        a, b = (0, 2, 0, 5), (3, 5, 0, 5)
        assert not window_overlaps(a, b)
        assert nodes_in(a)
        assert nodes_in(b)
        assert nodes_in(a).isdisjoint(nodes_in(b))


class TestCompiledGraphEquivalence:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 4, 3), (5, 3, 4)])
    def test_from_geometry_equals_dict_built(self, shape):
        """The geometry-compiled RR graph must match the dict-built one:
        same node ids (heap tie-breaking keys on them), same per-node edge
        sets, same attributes.  Neighbor *order* may differ — the search's
        ``(f, g, id)`` heap keys are unique, so expansion order does not
        depend on it."""
        width, height, tracks = shape
        geometric = CompiledRRGraph.from_geometry(width, height, tracks)
        dict_built = CompiledRRGraph(
            RoutingResourceGraph(
                FabricGrid(width, height), channel_width=tracks
            )._adjacency
        )
        assert geometric.nodes == dict_built.nodes
        assert [sorted(adj) for adj in geometric.neighbors] == [
            sorted(adj) for adj in dict_built.neighbors
        ]
        assert geometric.base_cost == dict_built.base_cost
        assert geometric.x == dict_built.x
        assert geometric.y == dict_built.y
