"""Differential and property tests of the P&R engine.

The engine runs on the calling thread and ignores its one execution knob:
any ``jobs`` value must produce the identical placement and routing for
the same seed, and start no thread.  The differential test pins that on
a real zoo netlist; the property tests pin the structural invariants the
router rests on — congestion domains never share routing-resource nodes,
and the geometry-compiled RR graph equals the dict-built one node for
node.  (The annealer's invariants live in ``test_placement.py`` and
``test_properties.py``.)
"""

from __future__ import annotations

import concurrent.futures
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rrgraph import ReferenceRRGraph

from repro.mapper.mapper import SpatialTemporalMapper
from repro.models.zoo import build_model
from repro.pnr.fabric import FabricGrid
from repro.pnr.options import PnROptions
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter
from repro.pnr.rrgraph import CompiledRRGraph
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
    the ``jobs=None`` result (LeNet d2: like every zoo netlist, one
    congestion domain)."""
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
        # re-recorded at pnr-v7: the search's ties prefer a track rotated
        # by the net's index, so routings moved and an older stage- or
        # shared-cache entry must miss; and again when FPSAConfig lost its
        # unread mean_route_segments field, which its fingerprint hashed
        assert key(None) == (
            "29c8be8673c299b283b2b852adf36d2f9785e1059f18900f3e5f503367ca9e4a"
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
                for i, node in enumerate(map(compiled.geometry.node, range(len(compiled))))
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
        geometry = geometric.geometry
        dict_built = ReferenceRRGraph(FabricGrid(width, height), channel_width=tracks)
        ids = range(len(geometric))
        assert [geometry.node(u) for u in ids] == dict_built.nodes
        assert [sorted(geometry.neighbors_of(u)) for u in ids] == [
            sorted(adj) for adj in dict_built.neighbor_ids
        ]
        assert geometric.base_cost == dict_built.base_cost
        assert geometric.x == dict_built.x
        assert geometric.y == dict_built.y
