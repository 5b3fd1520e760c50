"""Tests of tensor shape metadata."""

import numpy as np
import pytest

from repro.graph.tensor import TensorSpec
from repro.models.zoo import build_model

#: model -> (sum of node output sizes, total_ops, total_params), recorded at
#: commit 1e4fa78, where ``size`` was still ``int(np.prod(shape))``.
ZOO_COUNTS = {
    "MLP-500-100": (2004, 886630, 443000),
    "LeNet": (21004, 4601250, 430500),
    "CIFAR-VGG17": (488308, 263419262, 1403520),
    "AlexNet": (2090027, 1452962200, 60954656),
    "VGG16": (28827600, 30960208824, 138344128),
    "GoogLeNet": (10062768, 3185394408, 6990272),
    "ResNet152": (84650960, 22651036600, 60191808),
}


class TestTensorSpec:
    def test_size_and_bits(self):
        spec = TensorSpec((3, 4, 5), bits=6)
        assert spec.size == 60
        assert spec.bits_total == 360
        assert spec.rank == 3

    def test_size_is_exact_beyond_int64(self):
        # int(np.prod(...)) wrapped around to 0 here
        spec = TensorSpec((2**40, 2**40), bits=6)
        assert spec.size == 2**80
        assert spec.bits_total == 6 * 2**80

    @pytest.mark.parametrize("model", sorted(ZOO_COUNTS))
    def test_zoo_counts_unchanged(self, model):
        graph = build_model(model)
        sizes = sum(node.output.size for node in graph.nodes())
        assert (sizes, graph.total_ops(), graph.total_params()) == ZOO_COUNTS[model]
        assert all(type(node.output.size) is int for node in graph.nodes())

    def test_feature_map_accessors(self):
        spec = TensorSpec((64, 28, 28))
        assert spec.is_feature_map
        assert spec.channels == 64
        assert spec.height == 28
        assert spec.width == 28

    def test_vector_accessors(self):
        spec = TensorSpec((100,))
        assert spec.is_vector
        assert not spec.is_feature_map
        with pytest.raises(ValueError):
            _ = spec.channels

    def test_flattened(self):
        spec = TensorSpec((2, 3, 4), bits=8, name="x")
        flat = spec.flattened()
        assert flat.shape == (24,)
        assert flat.bits == 8

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(())
        with pytest.raises(ValueError):
            TensorSpec((0, 3))
        with pytest.raises(ValueError):
            TensorSpec((3,), bits=0)

    def test_with_name(self):
        spec = TensorSpec((3,)).with_name("activations")
        assert spec.name == "activations"

    def test_concrete_arrays(self):
        spec = TensorSpec((2, 3))
        assert spec.zeros().shape == (2, 3)
        rng = np.random.default_rng(0)
        sample = spec.random(rng)
        assert sample.shape == (2, 3)
        assert np.all((sample >= 0) & (sample < 1))

    def test_shape_coerced_to_ints(self):
        spec = TensorSpec((np.int64(3), np.int64(4)))
        assert spec.shape == (3, 4)
        assert all(isinstance(d, int) for d in spec.shape)
