"""Tests of the neural synthesizer driver."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.models import build_model
from repro.synthesizer.coreop import GRAPH_OUTPUT
from repro.synthesizer.synthesizer import SynthesisOptions, synthesize


class TestSynthesisOptions:
    def test_from_pe(self, config):
        options = SynthesisOptions.from_pe(config.pe)
        assert options.crossbar_rows == config.pe.rows
        assert options.crossbar_cols == config.pe.logical_cols

    def test_pooling_can_be_disabled(self):
        graph = build_model("LeNet")
        with_pool = synthesize(graph, SynthesisOptions(lower_pooling=True))
        without_pool = synthesize(graph, SynthesisOptions(lower_pooling=False))
        assert len(without_pool) < len(with_pool)
        assert all(g.kind not in ("pool_max", "pool_avg") for g in without_pool.groups())

    def test_lrn_can_be_disabled(self):
        graph = build_model("AlexNet")
        with_lrn = synthesize(graph, SynthesisOptions(lower_lrn=True))
        without_lrn = synthesize(graph, SynthesisOptions(lower_lrn=False))
        assert len(without_lrn) < len(with_lrn)


class TestSynthesizer:
    def test_passthrough_ops_produce_no_groups(self):
        builder = GraphBuilder("passthrough", input_shape=(16,))
        builder.dense(8, relu=True, name="fc").dropout(0.1).softmax()
        coreops = synthesize(builder.build())
        assert len(coreops) == 1  # only the dense matmul

    def test_output_edge_marked(self, mlp_coreops):
        outputs = [e for e in mlp_coreops.edges() if e.dst == GRAPH_OUTPUT]
        assert len(outputs) >= 1

    def test_mlp_group_count(self, mlp_coreops):
        # 3 dense layers + 2 reductions (fc1 rows 784 > 256, fc2 rows 500 > 256)
        kinds = sorted(g.kind for g in mlp_coreops.groups())
        assert kinds.count("matmul") == 3
        assert kinds.count("reduce") == 2

    def test_lenet_min_pes_reasonable(self, lenet_coreops):
        # LeNet's 430K weights need at least ceil(430K / 65536) = 7 PEs for
        # storage; tiling fragmentation and pooling add more.
        assert 7 <= lenet_coreops.min_pes() <= 40

    def test_vgg16_min_pes_close_to_weight_bound(self, vgg16_coreops, vgg16_graph):
        weight_bound = vgg16_graph.total_params() / (256 * 256)
        assert vgg16_coreops.min_pes() >= weight_bound
        assert vgg16_coreops.min_pes() < 1.2 * weight_bound

    def test_vgg16_max_reuse_is_first_conv(self, vgg16_coreops):
        assert vgg16_coreops.max_reuse_degree == 224 * 224

    def test_total_macs_close_to_graph_macs(self, vgg16_graph, vgg16_coreops):
        """The core-op graph's useful MACs should cover the model's MACs
        (pooling/LRN synthesis adds a small extra)."""
        graph_macs = vgg16_graph.total_ops() / 2
        coreop_macs = vgg16_coreops.total_macs()
        assert coreop_macs == pytest.approx(graph_macs, rel=0.15)

    def test_googlenet_pooling_dominates_groups(self):
        coreops = synthesize(build_model("GoogLeNet"))
        pool_groups = [g for g in coreops.groups() if g.kind in ("pool_max", "pool_avg")]
        assert len(pool_groups) >= 20  # 9 inception pools + stem pools, 2 stages each

    def test_unknown_operation_rejected(self):
        from repro.graph.graph import ComputationalGraph
        from repro.graph.ops import InputOp, Operation
        from repro.synthesizer.lowering import LoweringError

        class Exotic(Operation):
            def infer_shape(self, inputs):
                return inputs[0]

        graph = ComputationalGraph("exotic")
        graph.add("input", InputOp((4,)))
        graph.add("weird", Exotic(), ["input"])
        with pytest.raises(LoweringError):
            synthesize(graph)

    def test_synthesizer_is_deterministic(self, lenet_graph):
        first = synthesize(lenet_graph)
        second = synthesize(lenet_graph)
        assert [g.name for g in first.groups()] == [g.name for g in second.groups()]
        assert first.min_pes() == second.min_pes()


class TestSynthesisPassHasOnePath:
    def test_dedup_knob_builds_one_plain_synthesizer(self, lenet_graph, config, monkeypatch):
        from repro.core.cache import coreops_fingerprint
        from repro.core.pipeline import CompileContext, CompileOptions
        from repro.synthesizer.passes import SynthesisPass
        from repro.synthesizer.synthesizer import NeuralSynthesizer

        built = []
        plain_init = NeuralSynthesizer.__init__

        def spy(synthesizer, options=None):
            built.append(type(synthesizer))
            plain_init(synthesizer, options)

        monkeypatch.setattr(NeuralSynthesizer, "__init__", spy)

        def run(dedup):
            ctx = CompileContext(
                graph=lenet_graph, config=config, options=CompileOptions(dedup=dedup)
            )
            SynthesisPass().run(ctx)
            return ctx.coreops

        with_knob = run(dedup=True)
        assert built == [NeuralSynthesizer]
        assert coreops_fingerprint(with_knob) == coreops_fingerprint(run(dedup=False))
