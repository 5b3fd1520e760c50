"""Performance models: bounds and the analytic pipelined model."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytic": (
        "Architecture",
        "AreaSweepPoint",
        "BlockCounts",
        "FPSAArchitecture",
        "estimate_block_counts",
        "evaluate_design_point",
        "pipeline_depth",
        "sweep_area",
        "traffic_values_per_sample",
    ),
    ".bounds": ("UtilizationBounds", "compute_bounds", "spatial_utilization"),
    ".comm": ("CommContext", "ReconfigurableRoutingComm", "SharedBusComm", "mean_route_segments"),
    ".metrics": ("LatencyBreakdown", "PerformanceReport", "geometric_mean"),
    ".passes": ("BoundsPass", "PerfPass"),
})

__all__ = [
    "PerformanceReport",
    "LatencyBreakdown",
    "geometric_mean",
    "CommContext",
    "SharedBusComm",
    "ReconfigurableRoutingComm",
    "mean_route_segments",
    "UtilizationBounds",
    "compute_bounds",
    "spatial_utilization",
    "Architecture",
    "FPSAArchitecture",
    "BlockCounts",
    "estimate_block_counts",
    "traffic_values_per_sample",
    "pipeline_depth",
    "evaluate_design_point",
    "sweep_area",
    "AreaSweepPoint",
    "PerfPass",
    "BoundsPass",
]
