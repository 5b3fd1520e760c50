"""VGG11 and VGG16 for ImageNet.

VGG16 is the paper's primary case-study workload: 138.3M weights, 30.9G
operations per inference.  Its extreme imbalance between the early
convolutional layers (0.028% of the weights, 12.5% of the computation) and
the fully connected layers (89.3% of the weights, 0.8% of the computation)
drives the temporal-utilization analysis of Section 3.

VGG11 (configuration "A") shares VGG16's stage widths and classifier head
with fewer convolutions per stage.
"""

from __future__ import annotations

from ..graph import ComputationalGraph, GraphBuilder

__all__ = ["build_vgg11", "build_vgg16"]

#: standard VGG16 configuration (configuration "D"); "M" = 2x2 max pooling.
_CONFIG = [
    64, 64, "M",
    128, 128, "M",
    256, 256, 256, "M",
    512, 512, 512, "M",
    512, 512, 512, "M",
]

#: VGG11 (configuration "A"): same stage widths, one conv per early stage.
_CONFIG_A = [
    64, "M",
    128, "M",
    256, 256, "M",
    512, 512, "M",
    512, 512, "M",
]


def _build_vgg(
    name: str, config: list, num_classes: int
) -> ComputationalGraph:
    builder = GraphBuilder(name, input_shape=(3, 224, 224))
    conv_idx = 0
    pool_idx = 0
    for entry in config:
        if entry == "M":
            pool_idx += 1
            builder.maxpool(2, name=f"pool{pool_idx}")
        else:
            conv_idx += 1
            builder.conv(int(entry), 3, padding=1, name=f"conv{conv_idx}")
    builder.flatten(name="flatten")
    builder.dense(4096, relu=True, name="fc1")
    builder.dropout(0.5, name="drop1")
    builder.dense(4096, relu=True, name="fc2")
    builder.dropout(0.5, name="drop2")
    builder.dense(num_classes, name="fc3")
    builder.softmax(name="prob")
    return builder.build()


def build_vgg11(num_classes: int = 1000) -> ComputationalGraph:
    """Build the VGG11 (configuration "A") computational graph."""
    return _build_vgg("VGG11", _CONFIG_A, num_classes)


def build_vgg16(num_classes: int = 1000) -> ComputationalGraph:
    """Build the VGG16 computational graph."""
    return _build_vgg("VGG16", _CONFIG, num_classes)
