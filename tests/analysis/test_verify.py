"""Property tests of the IR verifiers: accept valid artifacts, reject
targeted mutations.

Each verifier is exercised two ways: hypothesis-generated *valid* artifacts
must verify silently, and a drawn structural mutation of the same artifact
must raise a :class:`~repro.errors.VerificationError` naming the violated
invariant.  Mutations always run on a deep copy so the session-scoped
fixtures stay pristine.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import (
    ARTIFACT_VERIFIERS,
    verification_enabled,
    verify_artifact,
    verify_artifacts,
    verify_coreops,
    verify_graph,
    verify_mapping,
    verify_netlist,
    verify_partition,
    verify_placement,
    verify_pnr,
    verify_routing,
)
from repro.errors import VerificationError
from repro.graph.graph import ComputationalGraph
from repro.graph.ops import Dense, InputOp, ReLU
from repro.mapper.mapper import SpatialTemporalMapper
from repro.mapper.netlist import Block
from repro.partition.partitioner import partition_coreops
from repro.pnr.pnr import PlaceAndRoute
from repro.synthesizer.coreop import GRAPH_INPUT, GRAPH_OUTPUT, CoreOpGraph, WeightGroup
from repro.synthesizer.synthesizer import synthesize

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

widths_st = st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=4)
in_size_st = st.integers(min_value=2, max_value=40)


def build_mlp(in_size: int, widths: list[int], relu: bool = True) -> ComputationalGraph:
    graph = ComputationalGraph("prop-mlp")
    graph.add("input", InputOp((in_size,)))
    prev = "input"
    for i, width in enumerate(widths):
        prev = graph.add(f"dense{i}", Dense(width), inputs=[prev]).name
        if relu and i < len(widths) - 1:
            prev = graph.add(f"relu{i}", ReLU(), inputs=[prev]).name
    return graph


def append_input(graph: ComputationalGraph, name: str, producer: str) -> None:
    """Rewire node ``name`` to also read ``producer``, behind ``add``'s
    back: nodes are immutable, so a replaced copy goes into the registry."""
    node = graph.node(name)
    graph._nodes[name] = dataclasses.replace(node, inputs=(*node.inputs, producer))


# ---------------------------------------------------------------------------
# graph verifier
# ---------------------------------------------------------------------------

class TestVerifyGraph:
    @settings(max_examples=15)
    @given(in_size=in_size_st, widths=widths_st)
    def test_accepts_valid_graphs(self, in_size, widths):
        verify_graph(build_mlp(in_size, widths))

    @settings(max_examples=15)
    @given(in_size=in_size_st, widths=widths_st, mutation=st.sampled_from(
        ["dangling", "rename", "cycle"]
    ))
    def test_rejects_mutations(self, in_size, widths, mutation):
        graph = build_mlp(in_size, widths)
        if mutation == "dangling":
            append_input(graph, "dense0", "no_such_node")
            invariant = "dangling-input"
        elif mutation == "rename":
            graph._nodes["ghost"] = graph._nodes.pop("dense0")
            graph._order[graph._order.index("dense0")] = "ghost"
            invariant = "name-mismatch"
        else:
            # an edge from the last layer back into the first closes a cycle
            last = f"dense{len(widths) - 1}"
            append_input(graph, "dense0", last)
            invariant = "cycle"
        with pytest.raises(VerificationError) as excinfo:
            verify_graph(graph)
        assert excinfo.value.invariant == invariant
        assert excinfo.value.stage == "graph"
        assert excinfo.value.ids  # offending ids are always named

    def test_verification_error_names_the_offender(self):
        graph = build_mlp(4, [3])
        append_input(graph, "dense0", "phantom")
        with pytest.raises(VerificationError, match="dense0<-phantom"):
            verify_graph(graph)


# ---------------------------------------------------------------------------
# core-op graph verifier
# ---------------------------------------------------------------------------

def _group(name: str) -> WeightGroup:
    return WeightGroup(name=name, source=name, kind="matmul", rows=4, cols=4, reuse=1)


class TestVerifyCoreops:
    @settings(max_examples=8)
    @given(in_size=in_size_st, widths=widths_st)
    def test_accepts_synthesized_graphs(self, in_size, widths):
        verify_coreops(synthesize(build_mlp(in_size, widths)))

    @settings(max_examples=8)
    @given(in_size=in_size_st, widths=widths_st, mutation=st.sampled_from(
        ["density", "ghost-edge", "key-mismatch", "cycle"]
    ))
    def test_rejects_mutations(self, in_size, widths, mutation):
        coreops = synthesize(build_mlp(in_size, widths))
        name = next(iter(coreops._groups))
        edge_cls = type(coreops._edges[0])
        if mutation == "density":
            object.__setattr__(coreops._groups[name], "density", 0.0)
            invariant = "weight-group-consistency"
        elif mutation == "ghost-edge":
            coreops._edges.append(
                edge_cls(src="ghost", dst=name, values_per_instance=1)
            )
            invariant = "edge-endpoints"
        elif mutation == "key-mismatch":
            coreops._groups["ghost"] = coreops._groups.pop(name)
            invariant = "name-mismatch"
        else:
            # a back edge from the last group to the first closes a cycle
            # (for a single group it degenerates to a self-loop)
            groups = list(coreops._groups)
            coreops._edges.append(
                edge_cls(src=groups[-1], dst=groups[0], values_per_instance=1)
            )
            invariant = "cycle"
        with pytest.raises(VerificationError) as excinfo:
            verify_coreops(coreops)
        assert excinfo.value.invariant == invariant
        assert excinfo.value.stage == "synthesis"


    def test_two_node_cycle_lists_both_groups(self):
        coreops = CoreOpGraph("loop")
        for name in ("a", "b", "tail"):
            coreops.add_group(_group(name))
        coreops.add_edge(GRAPH_INPUT, "a", 4)
        coreops.add_edge("a", "b", 4)
        coreops.add_edge("b", "a", 4)
        coreops.add_edge("b", "tail", 4)
        with pytest.raises(VerificationError) as excinfo:
            verify_coreops(coreops)
        assert excinfo.value.invariant == "cycle"
        # the cycle and everything downstream of it never becomes ready
        assert excinfo.value.ids == ("a", "b", "tail")

    def test_boundary_edges_only(self, monkeypatch):
        coreops = CoreOpGraph("islands")
        for name in ("a", "b"):
            coreops.add_group(_group(name))
            coreops.add_edge(GRAPH_INPUT, name, 4)
            coreops.add_edge(name, GRAPH_OUTPUT, 4)
        # the cycle check builds its own successor map in one pass
        monkeypatch.setattr(CoreOpGraph, "successors", None)
        verify_coreops(coreops)


# ---------------------------------------------------------------------------
# netlist / mapping verifiers
# ---------------------------------------------------------------------------

class TestVerifyMapping:
    @settings(max_examples=6)
    @given(
        in_size=in_size_st,
        widths=widths_st,
        duplication=st.sampled_from([1, 2, 4]),
    )
    def test_accepts_mapped_models(self, config, in_size, widths, duplication):
        mapping = SpatialTemporalMapper(config).map(
            synthesize(build_mlp(in_size, widths)),
            duplication_degree=duplication,
        )
        verify_mapping(mapping)

    @settings(max_examples=6)
    @given(in_size=in_size_st, widths=widths_st, mutation=st.sampled_from(
        ["drop-block", "empty-sinks", "pe-count", "duplicate-net", "zero-bits",
         "block-counts"]
    ))
    def test_rejects_mutations(self, config, in_size, widths, mutation):
        mapping = SpatialTemporalMapper(config).map(
            synthesize(build_mlp(in_size, widths)), duplication_degree=1
        )
        netlist = mapping.netlist
        if mutation == "drop-block":
            netlist.blocks.pop(netlist.nets[0].driver)
            invariant = "net-terminals"
        elif mutation == "empty-sinks":
            # a record is an immutable tuple; ``_replace`` builds the invalid
            # net its constructor would refuse
            netlist.nets[0] = netlist.nets[0]._replace(sinks=())
            invariant = "net-sinks"
        elif mutation == "pe-count":
            group = next(iter(mapping.allocation.allocations))
            netlist.blocks["pe-extra"] = Block("pe-extra", "PE", group=group)
            invariant = "pe-count"
        elif mutation == "duplicate-net":
            netlist.nets.append(netlist.nets[0])
            invariant = "duplicate-net"
        elif mutation == "block-counts":
            # a structurally sound netlist the closed-form counts miss
            netlist.blocks["clb-extra"] = Block("clb-extra", "CLB")
            invariant = "block-counts"
        else:
            netlist.nets[0] = netlist.nets[0]._replace(bits=0)
            invariant = "net-bits"
        with pytest.raises(VerificationError) as excinfo:
            verify_mapping(mapping)
        assert excinfo.value.invariant == invariant
        assert excinfo.value.stage == "mapping"

    def test_rejects_closed_form_counts_the_netlist_does_not_have(
        self, lenet_coreops, config
    ):
        mapping = SpatialTemporalMapper(config).map(lenet_coreops, duplication_degree=4)
        verify_mapping(mapping)
        mapping.control = dataclasses.replace(
            mapping.control, buffer_counters=mapping.control.buffer_counters + 1
        )
        with pytest.raises(VerificationError) as excinfo:
            verify_mapping(mapping)
        assert excinfo.value.invariant == "block-counts"

    @pytest.mark.parametrize("tile", [-1, 2])
    def test_rejects_a_pe_block_outside_its_group(self, mlp_coreops, config, tile):
        """A PE block moved past its group's tiles keeps the PE count, so
        only the ``pe-tiles`` invariant sees it."""
        mapping = SpatialTemporalMapper(config).map(mlp_coreops)
        blocks = mapping.netlist.blocks
        name = next(b.name for b in blocks.values() if b.type == "PE" and b.group == "fc2")
        assert mapping.coreops.group("fc2").min_pes(config.pe.rows, config.pe.logical_cols) == 2
        verify_mapping(mapping)
        blocks[name] = blocks[name]._replace(tile=tile)
        with pytest.raises(VerificationError) as excinfo:
            verify_mapping(mapping)
        assert excinfo.value.invariant == "pe-tiles"
        assert excinfo.value.ids == (name,)

    def test_netlist_verifier_standalone(self, lenet_mapping):
        netlist = copy.deepcopy(lenet_mapping.netlist)
        verify_netlist(netlist)
        netlist.blocks["ghost"] = netlist.blocks.pop(next(iter(netlist.blocks)))
        with pytest.raises(VerificationError) as excinfo:
            verify_netlist(netlist)
        assert excinfo.value.invariant == "name-mismatch"


# ---------------------------------------------------------------------------
# placement / routing / pnr verifiers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mlp_pnr(config):
    """One P&R run of a small MLP, shared (read-only) by the tests below."""
    mapping = SpatialTemporalMapper(config).map(
        synthesize(build_mlp(16, [8, 4])), duplication_degree=1
    )
    return mapping.netlist, PlaceAndRoute(config, seed=0).run(mapping.netlist)


class TestVerifyPnR:
    def test_accepts_real_pnr(self, mlp_pnr):
        netlist, pnr = mlp_pnr
        verify_placement(pnr.placement, netlist)
        verify_routing(pnr.routing, netlist, pnr.placement)
        verify_pnr(pnr, netlist)
        # the intra-artifact subset (no context) must also pass
        verify_pnr(pnr, None)

    @pytest.mark.parametrize("mutation,invariant", [
        ("out-of-bounds", "placement-bounds"),
        ("overlap", "placement-overlap"),
        ("unplaced", "placement-complete"),
        ("phantom", "placement-phantom"),
        ("io-site", "placement-io-sites"),
    ])
    def test_rejects_placement_mutations(self, mlp_pnr, mutation, invariant):
        netlist, pnr = mlp_pnr
        placement = copy.deepcopy(pnr.placement)
        blocks = list(placement.positions)
        non_io = [
            b for b in blocks
            if netlist.blocks[b].type != "IO"
        ]
        if mutation == "out-of-bounds":
            placement.positions[blocks[0]] = (placement.fabric.width + 7, -9)
        elif mutation == "overlap":
            placement.positions[non_io[0]] = placement.positions[non_io[1]]
        elif mutation == "unplaced":
            placement.positions.pop(blocks[0])
        elif mutation == "phantom":
            placement.positions["ghost"] = (0, 0)
        else:
            # a compute block on a peripheral I/O site
            placement.positions[non_io[0]] = (-1, 0)
        with pytest.raises(VerificationError) as excinfo:
            verify_placement(placement, netlist)
        assert excinfo.value.invariant in (invariant, "placement-overlap")

    @pytest.mark.parametrize("mutation,invariant", [
        ("share-wire", "rr-capacity"),
        ("rename", "name-mismatch"),
        ("stray-path", "route-tree"),
        ("unsorted-tree", "route-tree"),
        ("outside-fabric", "route-tree"),
        ("drop-net", "nets-routed"),
        ("phantom-net", "nets-phantom"),
        ("drop-sink-path", "route-connects-sinks"),
        ("jump-track", "route-edges"),
        ("mid-air", "route-edges"),
    ])
    def test_rejects_routing_mutations(self, mlp_pnr, mutation, invariant):
        netlist, pnr = mlp_pnr
        routing = copy.deepcopy(pnr.routing)
        node = routing.geometry.node
        names = sorted(routing.nets)
        first, second = routing.nets[names[0]], routing.nets[names[1]]

        def first_path(net):
            return next(iter(net.sink_paths))

        if mutation == "share-wire":
            # a wire of the first net forged into the second's tree: the
            # router never records an overuse, the recount finds it
            wire = first.nodes[0]
            assert node(wire).is_wire
            second.nodes = tuple(sorted({*second.nodes, wire}))
        elif mutation == "rename":
            routing.nets["ghost"] = routing.nets.pop(names[0])
        elif mutation == "stray-path":
            foreign = second.nodes[0]
            pos = first_path(first)
            first.sink_paths[pos] = first.sink_paths[pos] + (foreign,)
        elif mutation == "unsorted-tree":
            first.nodes = first.nodes[::-1]
        elif mutation == "outside-fabric":
            first.nodes = first.nodes + (routing.geometry.n_nodes,)
        elif mutation == "drop-net":
            routing.nets.pop(names[0])
        elif mutation == "phantom-net":
            # an empty routed net: no shared wires, purely a phantom entry
            routing.nets["ghost"] = type(first)(name="ghost")
        elif mutation == "drop-sink-path":
            first.sink_paths.pop(first_path(first))
        elif mutation == "jump-track":
            # the same channel on a track nobody uses: on the tree, in no
            # other net, but the disjoint switch boxes do not lead there
            net, pos, path = next(
                (net, pos, path)
                for net in routing.nets.values()
                for pos, path in net.sink_paths.items()
                if sum(node(u).is_wire for u in path) >= 2
            )
            k = next(i for i, u in enumerate(path) if node(u).is_wire)
            used = {node(u).track for net in routing.nets.values() for u in net.nodes}
            free = next(t for t in range(pnr.channel_width) if t not in used)
            moved = path[k] + 2 * (free - node(path[k]).track)
            assert node(moved) == dataclasses.replace(node(path[k]), track=free)
            net.sink_paths[pos] = path[:k] + (moved,) + path[k + 1:]
            net.nodes = tuple(sorted({*net.nodes, moved}))
        else:
            # the first path no longer starts at the driver's output pin
            pos = first_path(first)
            assert node(first.sink_paths[pos][0]).kind == "OPIN"
            first.sink_paths[pos] = first.sink_paths[pos][1:]
        # ``legal`` is the router-side recount of the same capacity rule
        assert routing.legal == (invariant != "rr-capacity")
        with pytest.raises(VerificationError) as excinfo:
            verify_routing(routing, netlist, pnr.placement)
        assert excinfo.value.invariant == invariant
        assert excinfo.value.stage == "pnr"


# ---------------------------------------------------------------------------
# partition verifier
# ---------------------------------------------------------------------------

class TestVerifyPartition:
    @settings(max_examples=6)
    @given(num_chips=st.integers(min_value=1, max_value=4))
    def test_accepts_real_partitions(self, lenet_coreops, num_chips):
        plan = partition_coreops(lenet_coreops, num_chips=num_chips)
        verify_partition(plan)
        verify_partition(plan, lenet_coreops)

    @pytest.mark.parametrize("mutation,invariant", [
        ("shard-count", "shard-count"),
        ("reassign", "exactly-once"),
        ("pe-total", "pe-total"),
        ("same-chip-cut", "cut-crosses-chips"),
        ("drop-cut-edge", "cut-set-closure"),
    ])
    def test_rejects_mutations(self, lenet_coreops, mutation, invariant):
        plan = copy.deepcopy(partition_coreops(lenet_coreops, num_chips=2))
        if mutation == "shard-count":
            plan.num_chips = 3
        elif mutation == "reassign":
            group = plan.shards[0].groups[0]
            plan.assignment[group] = 1
        elif mutation == "pe-total":
            plan.total_pes += 1
        elif mutation == "same-chip-cut":
            if not plan.cut_edges:
                pytest.skip("partition produced no cut edges")
            edge = plan.cut_edges[0]
            object.__setattr__(edge, "dst_chip", edge.src_chip)
        else:
            if not plan.cut_edges:
                pytest.skip("partition produced no cut edges")
            plan.cut_edges.pop(0)
        with pytest.raises(VerificationError) as excinfo:
            verify_partition(plan, lenet_coreops)
        assert excinfo.value.invariant == invariant
        assert excinfo.value.stage == "partition"

    def test_capacity_violation(self, lenet_coreops):
        plan = copy.deepcopy(partition_coreops(lenet_coreops, num_chips=2))
        plan.capacity_pes_per_chip = 1
        with pytest.raises(VerificationError) as excinfo:
            verify_partition(plan)
        assert excinfo.value.invariant == "capacity"


# ---------------------------------------------------------------------------
# registry / enablement
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_registry_covers_the_structural_artifacts(self):
        assert set(ARTIFACT_VERIFIERS) == {
            "graph", "coreops", "partition", "mapping", "pnr"
        }

    def test_verify_artifact_skips_unknown_and_none(self, mlp_coreops):
        assert verify_artifact("coreops", mlp_coreops)
        assert not verify_artifact("performance", object())
        assert not verify_artifact("coreops", None)

    def test_verify_artifacts_reports_what_it_checked(self, mlp_coreops):
        verified = verify_artifacts({"coreops": mlp_coreops, "performance": object()})
        assert verified == ["coreops"]

    def test_enablement_explicit_beats_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verification_enabled()
        assert verification_enabled(True)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verification_enabled()
        assert not verification_enabled(False)
        monkeypatch.setenv("REPRO_VERIFY", "off")
        assert not verification_enabled()
