"""Computational-graph frontend (the programming model of the system stack)."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("GraphProfile", "LayerStats", "profile_graph"),
    ".builder": ("GraphBuilder",),
    ".graph": ("ComputationalGraph", "GraphNode", "GraphValidationError"),
    ".ops": (
        "LRN",
        "Add",
        "AvgPool2d",
        "BatchNorm",
        "Concat",
        "Conv2d",
        "Dense",
        "Dropout",
        "Flatten",
        "GlobalAvgPool",
        "InputOp",
        "MaxPool2d",
        "Operation",
        "ReLU",
        "Softmax",
    ),
    ".tensor": ("TensorSpec",),
})

__all__ = [
    "TensorSpec",
    "Operation",
    "InputOp",
    "Conv2d",
    "Dense",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "ReLU",
    "Add",
    "Concat",
    "BatchNorm",
    "LRN",
    "Flatten",
    "Dropout",
    "Softmax",
    "ComputationalGraph",
    "GraphNode",
    "GraphValidationError",
    "GraphBuilder",
    "GraphProfile",
    "LayerStats",
    "profile_graph",
]
