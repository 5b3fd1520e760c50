"""Tests of the core-op graph data structures."""

import pickle

import pytest

from repro.synthesizer.coreop import (
    GRAPH_INPUT,
    GRAPH_OUTPUT,
    CoreOpGraph,
    WeightGroup,
)


def make_group(name: str, rows=256, cols=256, reuse=1, **kwargs) -> WeightGroup:
    return WeightGroup(
        name=name, source=name, kind="matmul", rows=rows, cols=cols, reuse=reuse,
        macs_per_instance=rows * cols, **kwargs,
    )


class TestWeightGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_group("bad", rows=0)
        with pytest.raises(ValueError):
            make_group("bad", reuse=0)
        with pytest.raises(ValueError):
            WeightGroup("bad", "s", "matmul", 4, 4, 1, density=0.0)

    def test_min_pes_from_tiling(self):
        assert make_group("small", rows=100, cols=100).min_pes() == 1
        assert make_group("wide", rows=256, cols=1024).min_pes() == 4
        assert make_group("tall", rows=1024, cols=256).min_pes() == 4

    def test_instances(self):
        group = make_group("conv", rows=512, cols=256, reuse=10)
        assert group.instances() == 20

    def test_weights_respect_density(self):
        group = WeightGroup("sparse", "s", "pool_max", 256, 256, 1, density=0.5,
                            macs_per_instance=100)
        assert group.weights == 256 * 256 // 2

    def test_total_macs(self):
        group = make_group("g", rows=10, cols=10, reuse=7)
        assert group.total_macs == 700


class TestCoreOpGraph:
    def build(self) -> CoreOpGraph:
        g = CoreOpGraph("test")
        g.add_group(make_group("a", reuse=4))
        g.add_group(make_group("b", reuse=2))
        g.add_group(make_group("c"))
        g.add_edge(GRAPH_INPUT, "a", 256)
        g.add_edge("a", "b", 256)
        g.add_edge("b", "c", 256)
        g.add_edge("c", GRAPH_OUTPUT, 10)
        return g

    def test_membership_and_lookup(self):
        g = self.build()
        assert len(g) == 3
        assert "a" in g and "z" not in g
        assert g.group("a").reuse == 4
        with pytest.raises(KeyError):
            g.group("z")

    def test_duplicate_group_rejected(self):
        g = self.build()
        with pytest.raises(ValueError):
            g.add_group(make_group("a"))

    def test_edge_to_unknown_group_rejected(self):
        g = self.build()
        with pytest.raises(ValueError):
            g.add_edge("a", "unknown", 10)

    def test_predecessors_successors(self):
        g = self.build()
        assert g.predecessors("b") == ["a"]
        assert g.successors("b") == ["c"]
        assert g.predecessors("a") == []  # boundary edges excluded

    def test_topological_order(self):
        g = self.build()
        order = [grp.name for grp in g.topological_groups()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_order_of_a_diamond_with_boundary_edges(self):
        """Kahn's algorithm, FIFO: ties resolve by group insertion order,
        successors by edge insertion order; boundary edges count nowhere."""
        g = CoreOpGraph("diamond")
        for name in ("d", "c", "b", "a", "lone"):
            g.add_group(make_group(name))
        g.add_edge(GRAPH_INPUT, "a", 8)
        g.add_edge(GRAPH_INPUT, "d", 8)  # skip connection from the boundary
        g.add_edge("a", "c", 8)
        g.add_edge("a", "b", 8)
        g.add_edge("b", "d", 8)
        g.add_edge("c", "d", 8)
        g.add_edge("a", "b", 4)  # parallel edge
        g.add_edge("d", GRAPH_OUTPUT, 8)
        g.add_edge("b", GRAPH_OUTPUT, 8)
        order = [grp.name for grp in g.topological_groups()]
        assert order == ["a", "lone", "c", "b", "d"]

    def test_cycle_detection(self):
        g = self.build()
        g.add_edge("c", "a", 10)
        with pytest.raises(ValueError):
            g.topological_groups()

    def test_statistics(self):
        g = self.build()
        assert g.max_reuse_degree == 4
        assert g.total_instances() == 4 + 2 + 1
        assert g.min_pes() == 3
        assert g.total_macs() == 256 * 256 * 7
        assert 0 < g.spatial_utilization() <= 1.0

    def test_summary_mentions_groups(self):
        assert "a" in self.build().summary()

    def test_derived_values_follow_every_mutation(self):
        g = self.build()
        view = g.derived()
        assert g.derived() is view  # one view per graph version
        assert (g.min_pes(), g.max_reuse_degree, view.traffic) == (3, 4, 1024 + 512 + 256 + 10)
        g.add_group(make_group("d", rows=512, reuse=8))
        assert g.derived() is not view
        assert (g.min_pes(), g.max_reuse_degree, g.total_instances()) == (5, 8, 7 + 16)
        assert [grp.name for grp in g.topological_groups()] == ["a", "d", "b", "c"]
        g.add_edge("c", "d", 100)
        assert g.derived().traffic == 1024 + 512 + 256 + 10 + 800
        assert [grp.name for grp in g.topological_groups()] == ["a", "b", "c", "d"]

    def test_pickle_drops_the_derived_view(self):
        g = self.build()
        before = pickle.dumps(g)
        g.derived().tiling()
        assert pickle.dumps(g) == before
        assert pickle.loads(before).min_pes() == 3

