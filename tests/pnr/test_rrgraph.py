"""Tests of the routing-resource graph: the compiled graph's arithmetic
against the dict-built reference in ``reference_rrgraph``."""

import pytest
from reference_rrgraph import ReferenceRRGraph

from repro.analysis.verify import _is_fabric_switch
from repro.pnr.fabric import FabricGrid
from repro.pnr.rrgraph import CompiledRRGraph, RoutingResourceGraph, RRNode


@pytest.fixture(scope="module")
def small_rrg():
    return ReferenceRRGraph(FabricGrid(3, 3), channel_width=4)


class TestRoutingResourceGraph:
    def test_channel_width_validated(self):
        with pytest.raises(ValueError):
            RoutingResourceGraph(FabricGrid(2, 2), channel_width=0)
        with pytest.raises(ValueError):
            ReferenceRRGraph(FabricGrid(2, 2), channel_width=0)

    def test_wire_count(self, small_rrg):
        # channels at x,y in -1..2 -> 4x4 positions, 2 directions, 4 tracks
        assert small_rrg.wire_count() == 4 * 4 * 2 * 4

    def test_block_pins_exist(self, small_rrg):
        assert small_rrg.opin(1, 1) in small_rrg
        assert small_rrg.ipin(2, 0) in small_rrg

    def test_opin_connects_to_adjacent_wires(self, small_rrg):
        neighbors = small_rrg.neighbors(small_rrg.opin(1, 1))
        assert neighbors
        assert all(n.is_wire for n in neighbors)
        # four surrounding channels x 4 tracks
        assert len(neighbors) == 16

    def test_wires_reach_ipins(self, small_rrg):
        wire = RRNode("H", 1, 1, 0)
        neighbors = small_rrg.neighbors(wire)
        assert any(n.kind == "IPIN" for n in neighbors)

    def test_switchbox_preserves_track(self, small_rrg):
        wire = RRNode("H", 0, 0, 2)
        for neighbor in small_rrg.neighbors(wire):
            if neighbor.is_wire:
                assert neighbor.track == 2

    def test_unknown_node_raises(self, small_rrg):
        with pytest.raises(KeyError):
            small_rrg.neighbors(RRNode("H", 99, 99, 0))

    def test_connectivity_source_to_sink(self, small_rrg):
        """Breadth-first search must reach any input pin from any output pin."""
        from collections import deque

        start = small_rrg.opin(0, 0)
        target = small_rrg.ipin(2, 2)
        seen = {start}
        queue = deque([start])
        found = False
        while queue:
            node = queue.popleft()
            if node == target:
                found = True
                break
            for neighbor in small_rrg.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        assert found


class TestNeighbourRule:
    """The compiled graph stores no edge: a node and its out-edges are
    computed from its id, and must equal the dict construction node for
    node."""

    @pytest.mark.parametrize("tracks", [1, 2, 16])
    @pytest.mark.parametrize("size", [(1, 1), (1, 5), (4, 3), (7, 6)])
    def test_rule_equals_dict_built_adjacency(self, size, tracks):
        width, height = size
        computed = CompiledRRGraph.from_geometry(width, height, tracks)
        geometry = computed.geometry
        reference = ReferenceRRGraph(FabricGrid(width, height), channel_width=tracks)
        assert len(computed) == len(reference)
        assert computed.n_wires == reference.n_wires
        assert [geometry.node(u) for u in range(len(computed))] == reference.nodes
        for u, expected in enumerate(reference.neighbor_ids):
            found = geometry.neighbors_of(u)
            assert len(found) == len(set(found)), reference.nodes[u]
            assert sorted(found) == sorted(expected), reference.nodes[u]
        assert (computed.x, computed.y, computed.base_cost) == (
            reference.x, reference.y, reference.base_cost
        )

    def test_an_output_pin_drives_whole_channels(self):
        computed = CompiledRRGraph.from_geometry(3, 2, 4)
        geometry = computed.geometry
        for x in range(-1, 4):
            for y in range(-1, 3):
                opin = geometry.pin_id("OPIN", x, y)
                channels = geometry.opin_channels(opin)
                assert all(len(channel) == 4 for channel in channels)
                wires = [geometry.node(w) for channel in channels for w in channel]
                kinds = {(wire.kind, wire.x, wire.y) for wire in wires}
                assert len(kinds) == len(channels) <= 4
                assert geometry.neighbors_of(opin) == [w for c in channels for w in c]

    def test_pin_ids_round_trip_and_unknown_sites_raise(self):
        geometry = CompiledRRGraph.from_geometry(3, 2, 2).geometry
        for kind in ("OPIN", "IPIN"):
            for x in range(-1, 4):
                for y in range(-1, 3):
                    assert geometry.node(geometry.pin_id(kind, x, y)) == RRNode(kind, x, y)
            for x, y in [(-2, 0), (4, 0), (0, -2), (0, 3)]:
                with pytest.raises(KeyError):
                    geometry.pin_id(kind, x, y)

    def test_the_benchmark_fabric_retains_under_4_mb(self):
        """18 x 18 x 64 is the largest fabric of ``pnr_cold``; its 47 008
        adjacency lists used to retain 19.4 MB."""
        import tracemalloc

        graph = RoutingResourceGraph(FabricGrid(18, 18), channel_width=64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            compiled = graph.compiled()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(compiled) == 47008
        assert retained < 4 * 2**20, f"{retained / 2**20:.1f} MB"


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 2), (3, 2, 2), (4, 4, 1)])
def test_switch_predicate_equals_the_dict_built_graph(shape):
    """The verifier's ``route-edges`` judges adjacency on coordinates; the
    reference is the object-level adjacency, every ordered pair of nodes."""
    width, height, tracks = shape
    adjacency = ReferenceRRGraph(FabricGrid(width, height), channel_width=tracks).adjacency
    for a, out in adjacency.items():
        assert {b for b in adjacency if _is_fabric_switch(a, b)} == set(out), a
