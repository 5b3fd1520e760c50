"""Model zoo registry and the paper's published per-model reference numbers.

The registry maps the benchmark names used throughout the paper's
evaluation to graph-builder functions, and records the #weights / #ops
published in Table 3 so tests and EXPERIMENTS.md can compare our model
definitions against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import UnknownModelError
from ..graph import ComputationalGraph
from .alexnet import build_alexnet
from .cifar_vgg import build_cifar_vgg17
from .googlenet import build_googlenet
from .lenet import build_lenet
from .mlp import build_mlp_500_100
from .resnet import build_resnet152, build_resnet50
from .vgg import build_vgg11, build_vgg16

__all__ = [
    "ModelReference",
    "MODEL_BUILDERS",
    "PAPER_TABLE3",
    "BENCHMARK_MODELS",
    "model_names",
    "build_model",
    "shared_model",
]


@dataclass(frozen=True)
class ModelReference:
    """Published Table 3 numbers for one benchmark model (64x duplication)."""

    name: str
    dataset: str
    weights: float
    ops: float
    throughput_samples_per_s: float
    latency_us: float
    area_mm2: float


#: builders for every model in the zoo (including extras used by tests).
MODEL_BUILDERS: dict[str, Callable[[], ComputationalGraph]] = {
    "MLP-500-100": build_mlp_500_100,
    "LeNet": build_lenet,
    "CIFAR-VGG17": build_cifar_vgg17,
    "AlexNet": build_alexnet,
    "VGG11": build_vgg11,
    "VGG16": build_vgg16,
    "GoogLeNet": build_googlenet,
    "ResNet152": build_resnet152,
    "ResNet50": build_resnet50,
}

#: the seven benchmark models of the paper's evaluation, in Table 3 order.
BENCHMARK_MODELS: tuple[str, ...] = (
    "MLP-500-100",
    "LeNet",
    "CIFAR-VGG17",
    "AlexNet",
    "VGG16",
    "GoogLeNet",
    "ResNet152",
)

#: Table 3 of the paper (overall FPSA performance, 64x duplication degree).
PAPER_TABLE3: dict[str, ModelReference] = {
    "MLP-500-100": ModelReference(
        "MLP-500-100", "MNIST", 443.0e3, 886.0e3, 129.7e6, 0.51, 28.23
    ),
    "LeNet": ModelReference(
        "LeNet", "MNIST", 430.5e3, 4.6e6, 229.4e3, 0.97, 2.27
    ),
    "CIFAR-VGG17": ModelReference(
        "CIFAR-VGG17", "CIFAR-10", 1.1e6, 333.4e6, 117.4e3, 46.3, 21.68
    ),
    "AlexNet": ModelReference(
        "AlexNet", "ImageNet", 60.6e6, 1.4e9, 28.2e3, 100.49, 45.89
    ),
    "VGG16": ModelReference(
        "VGG16", "ImageNet", 138.3e6, 30.9e9, 2.4e3, 671.8, 68.09
    ),
    "GoogLeNet": ModelReference(
        "GoogLeNet", "ImageNet", 7.0e6, 3.2e9, 10.9e3, 514.18, 47.74
    ),
    "ResNet152": ModelReference(
        "ResNet152", "ImageNet", 57.7e6, 22.6e9, 10.8e3, 1106.4, 64.32
    ),
}


def model_names() -> list[str]:
    """Names of the paper's benchmark models, in Table 3 order."""
    return list(BENCHMARK_MODELS)


def build_model(name: str) -> ComputationalGraph:
    """Build a model from the zoo by name."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}",
            details={"model": name, "available": sorted(MODEL_BUILDERS)},
        ) from None
    return builder()


#: :func:`shared_model`'s table: name -> (graph, its ``mutation_count`` when
#: stored).  At most one entry per ``MODEL_BUILDERS`` name, per process.
_SHARED_GRAPHS: dict[str, tuple[ComputationalGraph, int]] = {}


def shared_model(name: str) -> ComputationalGraph:
    """The process's shared graph of a zoo model — treat it as read-only.

    A serving worker compiles the same few models over and over; building
    each once also lets the memos the graph carries (its fingerprint, its
    operation count) hit across requests.  The hand-out is guarded, not
    trusted: a graph some caller ``add``-ed to no longer has the
    ``mutation_count`` recorded here and is rebuilt.  Callers that mutate
    their graph want :func:`build_model`.
    """
    entry = _SHARED_GRAPHS.get(name)
    if entry is None or entry[0].mutation_count != entry[1]:
        graph = build_model(name)
        # concurrent callers may both build; the graphs are equal and the
        # last assignment wins
        entry = _SHARED_GRAPHS[name] = (graph, graph.mutation_count)
    return entry[0]
