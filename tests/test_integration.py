"""End-to-end integration tests crossing every layer of the stack."""

import pytest

from repro.core.compiler import FPSACompiler
from repro.graph import GraphBuilder
from repro.models import PAPER_TABLE3, build_model
from repro.perf.analytic import FPSAArchitecture
from repro.synthesizer import synthesize


class TestCustomModelEndToEnd:
    def test_user_defined_cnn_deploys(self):
        """A model built through the public GraphBuilder API goes through
        synthesis, mapping, P&R and performance evaluation."""
        builder = GraphBuilder("custom-cnn", input_shape=(3, 16, 16))
        builder.conv(16, 3, padding=1).maxpool(2).conv(32, 3, padding=1).maxpool(2)
        builder.flatten().dense(64, relu=True).dense(10).softmax()
        graph = builder.build()

        compiler = FPSACompiler()
        result = compiler.compile(
            graph, duplication_degree=4, run_pnr=True, pnr_channel_width=24,
        )
        assert result.throughput_samples_per_s > 0
        assert result.latency_us > 0
        assert result.pnr is not None and result.pnr.routing.legal
        assert result.mapping.netlist.n_pe >= result.coreops.min_pes()

    def test_residual_model_deploys(self):
        builder = GraphBuilder("custom-resnet", input_shape=(8, 8, 8))
        trunk = builder.checkpoint()
        builder.conv(8, 3, padding=1, relu=False, name="branch", from_=trunk)
        builder.add(builder.current, trunk)
        builder.global_avgpool().dense(4).softmax()
        result = FPSACompiler().compile(builder.build(), duplication_degree=2)
        assert result.throughput_samples_per_s > 0


class TestPaperHeadlines:
    def test_thousandfold_speedup_headline(self, vgg16_coreops, vgg16_graph):
        """The abstract's headline: up to ~1000x inference speedup over
        PRIME at equal area (we accept anything within [300x, 3000x])."""
        from repro.baselines.prime import PrimeArchitecture
        from repro.perf.analytic import sweep_area

        ops = vgg16_graph.total_ops()
        areas = [5000.0, 10000.0]
        prime = sweep_area(vgg16_coreops, ops, PrimeArchitecture(), areas)
        fpsa = sweep_area(vgg16_coreops, ops, FPSAArchitecture(), areas)
        ratios = [
            f.real_ops / p.real_ops
            for f, p in zip(fpsa, prime, strict=True)
            if p.real_ops > 0
        ]
        best = max(ratios)
        assert 300 < best < 3000

    def test_computational_density_headline(self, config):
        """The conclusion's headline: ~38 TOPS/mm^2 computational density."""
        assert config.pe.computational_density_ops_per_mm2 / 1e12 == pytest.approx(38.0, rel=0.01)

    @pytest.mark.parametrize("name", ["AlexNet", "GoogLeNet"])
    def test_imagenet_models_full_stack_sanity(self, name):
        graph = build_model(name)
        coreops = synthesize(graph)
        result = FPSACompiler().compile(graph, duplication_degree=16)
        reference = PAPER_TABLE3[name]
        # within an order of magnitude of the published 64x-duplication point
        assert result.area_mm2 < reference.area_mm2 * 3
        assert result.throughput_samples_per_s > 0
        assert coreops.total_weights() >= graph.total_params()
