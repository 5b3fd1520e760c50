"""Tests of the benchmark model zoo against the paper's Table 3 numbers."""

import pytest

from repro.models import (
    BENCHMARK_MODELS,
    MODEL_BUILDERS,
    PAPER_TABLE3,
    build_model,
    build_resnet50,
    model_names,
)


class TestRegistry:
    def test_all_benchmark_models_registered(self):
        assert set(BENCHMARK_MODELS) <= set(MODEL_BUILDERS)
        assert model_names() == list(BENCHMARK_MODELS)
        assert len(BENCHMARK_MODELS) == 7

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            build_model("NotANetwork")

    def test_paper_reference_for_every_benchmark(self):
        for name in BENCHMARK_MODELS:
            assert name in PAPER_TABLE3


class TestModelDefinitions:
    @pytest.mark.parametrize("name", ["MLP-500-100", "LeNet", "AlexNet", "VGG16", "GoogLeNet"])
    def test_weight_counts_match_paper(self, name):
        graph = build_model(name)
        reference = PAPER_TABLE3[name]
        assert graph.total_params() == pytest.approx(reference.weights, rel=0.06)

    @pytest.mark.parametrize("name", ["MLP-500-100", "LeNet", "AlexNet", "VGG16", "GoogLeNet", "ResNet152"])
    def test_op_counts_match_paper(self, name):
        graph = build_model(name)
        reference = PAPER_TABLE3[name]
        assert graph.total_ops() == pytest.approx(reference.ops, rel=0.08)

    def test_resnet152_weights_close_to_paper(self):
        graph = build_model("ResNet152")
        # the paper lists 57.7M; the standard ResNet-152 definition has ~60M
        assert graph.total_params() == pytest.approx(PAPER_TABLE3["ResNet152"].weights, rel=0.08)

    def test_cifar_vgg17_order_of_magnitude(self):
        # the paper does not publish the exact VGG17 configuration; check scale only
        graph = build_model("CIFAR-VGG17")
        reference = PAPER_TABLE3["CIFAR-VGG17"]
        assert 0.3 < graph.total_params() / reference.weights < 3.0
        assert 0.3 < graph.total_ops() / reference.ops < 3.0

    def test_mlp_exact_counts(self):
        graph = build_model("MLP-500-100")
        assert graph.total_params() == 443_000

    def test_lenet_exact_counts(self):
        graph = build_model("LeNet")
        assert graph.total_params() == 430_500

    @pytest.mark.parametrize("name", list(BENCHMARK_MODELS))
    def test_all_models_validate(self, name):
        graph = build_model(name)
        graph.validate()
        assert len(graph.output_nodes()) == 1

    @pytest.mark.parametrize(
        "name, classes",
        [("MLP-500-100", 10), ("LeNet", 10), ("CIFAR-VGG17", 10),
         ("AlexNet", 1000), ("VGG16", 1000), ("GoogLeNet", 1000), ("ResNet152", 1000)],
    )
    def test_output_dimension(self, name, classes):
        graph = build_model(name)
        assert graph.output_nodes()[0].output.shape == (classes,)

    def test_resnet50_smaller_than_resnet152(self):
        assert build_resnet50().total_params() < build_model("ResNet152").total_params()

    def test_vgg11_is_registered_but_not_a_benchmark(self):
        # VGG11 is the stack benchmark's warm-up model, not a paper
        # workload, so the Table-3 zoo stays unchanged
        graph = build_model("VGG11")
        graph.validate()
        assert "VGG11" not in BENCHMARK_MODELS
        conv_names = [n.name for n in graph.nodes() if n.name.startswith("conv")]
        assert len(conv_names) == 8
        # configuration A shares D's classifier head: most parameters match
        assert graph.total_params() < build_model("VGG16").total_params()
        assert graph.output_nodes()[0].output.shape == (1000,)

    def test_vgg16_layer_structure(self, vgg16_graph):
        conv_names = [n.name for n in vgg16_graph.nodes() if n.name.startswith("conv")]
        assert len(conv_names) == 13
        fc_names = [n.name for n in vgg16_graph.nodes() if n.name.startswith("fc")]
        assert len(fc_names) == 3

    def test_googlenet_has_nine_inception_modules(self):
        graph = build_model("GoogLeNet")
        concats = [n for n in graph.nodes() if n.kind == "Concat"]
        assert len(concats) == 9
