"""Device variation and the splice/add weight-representation study."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accuracy": ("AccuracyModel", "AccuracyPoint", "accuracy_sweep"),
    ".devices": ("YAO2017_DEVICE", "MeasuredDevice", "measured_cell"),
    ".montecarlo": ("MonteCarloResult", "SyntheticTask", "run_montecarlo"),
    ".representation": (
        "RepresentationPoint",
        "effective_weight_bits",
        "effective_weight_levels",
        "normalized_deviation",
        "representation_sweep",
    ),
})

__all__ = [
    "MeasuredDevice",
    "YAO2017_DEVICE",
    "measured_cell",
    "RepresentationPoint",
    "normalized_deviation",
    "effective_weight_levels",
    "effective_weight_bits",
    "representation_sweep",
    "AccuracyModel",
    "AccuracyPoint",
    "accuracy_sweep",
    "SyntheticTask",
    "MonteCarloResult",
    "run_montecarlo",
]
