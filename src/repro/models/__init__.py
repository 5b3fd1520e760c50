"""The benchmark NN model zoo (Table 3 of the paper)."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".alexnet": ("build_alexnet",),
    ".cifar_vgg": ("build_cifar_vgg17",),
    ".googlenet": ("build_googlenet",),
    ".lenet": ("build_lenet",),
    ".mlp": ("build_mlp_500_100",),
    ".resnet": ("build_resnet", "build_resnet152", "build_resnet50"),
    ".vgg": ("build_vgg11", "build_vgg16"),
    ".zoo": (
        "BENCHMARK_MODELS",
        "MODEL_BUILDERS",
        "PAPER_TABLE3",
        "ModelReference",
        "build_model",
        "model_names",
    ),
})

__all__ = [
    "build_mlp_500_100",
    "build_lenet",
    "build_cifar_vgg17",
    "build_alexnet",
    "build_vgg11",
    "build_vgg16",
    "build_googlenet",
    "build_resnet",
    "build_resnet50",
    "build_resnet152",
    "ModelReference",
    "MODEL_BUILDERS",
    "BENCHMARK_MODELS",
    "PAPER_TABLE3",
    "build_model",
    "model_names",
]
